type result = { x : float; fx : float }

(* Brent's minimization, after Numerical Recipes' transcription of
   Brent (1973), ch. 5. *)
let brent ~f a b =
  let tol = 1e-10 and max_iter = 200 in
  let cgold = 0.381966 in
  let zeps = 1e-18 in
  let a = ref (Float.min a b) and b = ref (Float.max a b) in
  let x = ref (!a +. (cgold *. (!b -. !a))) in
  let w = ref !x and v = ref !x in
  let fx = ref (f !x) in
  let fw = ref !fx and fv = ref !fx in
  let d = ref 0. and e = ref 0. in
  let result = ref None in
  let iter = ref 0 in
  while !result = None && !iter < max_iter do
    incr iter;
    let xm = 0.5 *. (!a +. !b) in
    let tol1 = (tol *. Float.abs !x) +. zeps in
    let tol2 = 2. *. tol1 in
    if Float.abs (!x -. xm) <= tol2 -. (0.5 *. (!b -. !a)) then
      result := Some { x = !x; fx = !fx }
    else begin
      let use_golden = ref true in
      if Float.abs !e > tol1 then begin
        (* parabolic fit through x, v, w *)
        let r = (!x -. !w) *. (!fx -. !fv) in
        let q = (!x -. !v) *. (!fx -. !fw) in
        let p = ((!x -. !v) *. q) -. ((!x -. !w) *. r) in
        let q = 2. *. (q -. r) in
        let p = if q > 0. then -.p else p in
        let q = Float.abs q in
        let etemp = !e in
        e := !d;
        if
          Float.abs p < Float.abs (0.5 *. q *. etemp)
          && p > q *. (!a -. !x)
          && p < q *. (!b -. !x)
        then begin
          d := p /. q;
          let u = !x +. !d in
          if u -. !a < tol2 || !b -. u < tol2 then
            d := if xm >= !x then tol1 else -.tol1;
          use_golden := false
        end
      end;
      if !use_golden then begin
        e := (if !x >= xm then !a else !b) -. !x;
        d := cgold *. !e
      end;
      let u =
        if Float.abs !d >= tol1 then !x +. !d
        else !x +. (if !d >= 0. then tol1 else -.tol1)
      in
      let fu = f u in
      if fu <= !fx then begin
        if u >= !x then a := !x else b := !x;
        v := !w; fv := !fw;
        w := !x; fw := !fx;
        x := u; fx := fu
      end else begin
        if u < !x then a := u else b := u;
        if fu <= !fw || !w = !x then begin
          v := !w; fv := !fw;
          w := u; fw := fu
        end else if fu <= !fv || !v = !x || !v = !w then begin
          v := u;
          fv := fu
        end
      end
    end
  done;
  match !result with
  | Some r -> r
  | None -> { x = !x; fx = !fx }

let grid ~samples a b =
  if samples < 2 then invalid_arg "Minimize.grid: samples < 2";
  let lo = Float.min a b and hi = Float.max a b in
  let h = (hi -. lo) /. float_of_int samples in
  let xs = Array.create_float (samples + 1) (* a loop boxes no point *) in
  for i = 0 to samples do
    xs.(i) <- (if i = 0 then lo else lo +. (float_of_int i *. h))
  done;
  xs

let grid_then_brent ~f xs fxs =
  let best_i = ref 0 in
  for i = 1 to Array.length fxs - 1 do
    if fxs.(i) < fxs.(!best_i) then best_i := i
  done;
  let i = !best_i in
  let polished = brent ~f xs.(max 0 (i - 1)) xs.(min (Array.length xs - 1) (i + 1)) in
  (* The polish can only improve on the grid incumbent; keep the grid
     point if Brent landed on a worse local feature. *)
  if polished.fx <= fxs.(i) then polished
  else { x = xs.(i); fx = fxs.(i) }
