type result = { x : float array; fx : float; iterations : int; converged : bool }

(* standard coefficients: reflection, expansion, contraction, shrink *)
let alpha = 1.
let gamma = 2.
let rho = 0.5
let sigma = 0.5

let sub a b = Array.mapi (fun i x -> x -. b.(i)) a
let norm_inf a = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. a

let minimize ?(tol = 1e-10) ?scale ~f x0 =
  let dim = Array.length x0 in
  if dim = 0 then invalid_arg "Nelder_mead.minimize: empty starting point";
  let max_iter = 200 * dim in
  let scale =
    match scale with
    | Some s ->
        if Array.length s <> dim then
          invalid_arg "Nelder_mead.minimize: scale dimension mismatch";
        s
    | None -> Array.map (fun x -> Float.max 0.1 (0.1 *. Float.abs x)) x0
  in
  if not (Float.is_finite (f x0)) then
    invalid_arg "Nelder_mead.minimize: objective not finite at start";
  (* simplex: dim + 1 vertices *)
  let vertices =
    Array.init (dim + 1) (fun i ->
        let v = Array.copy x0 in
        if i > 0 then v.(i - 1) <- v.(i - 1) +. scale.(i - 1);
        v)
  in
  let values = Array.map f vertices in
  let order () =
    let idx = Array.init (dim + 1) Fun.id in
    Array.sort (fun a b -> Float.compare values.(a) values.(b)) idx;
    idx
  in
  let centroid exclude =
    let c = Array.make dim 0. in
    Array.iteri
      (fun i v ->
        if i <> exclude then
          Array.iteri (fun k x -> c.(k) <- c.(k) +. (x /. float_of_int dim)) v)
      vertices;
    c
  in
  let blend a b coeff =
    Array.init dim (fun k -> a.(k) +. (coeff *. (b.(k) -. a.(k))))
  in
  let iterations = ref 0 in
  let converged = ref false in
  let shrink_toward best =
    let b = vertices.(best) in
    Array.iteri
      (fun i v ->
        if i <> best then begin
          vertices.(i) <- blend b v sigma;
          values.(i) <- f vertices.(i)
        end)
      vertices
  in
  while (not !converged) && !iterations < max_iter do
    incr iterations;
    let idx = order () in
    let best = idx.(0) and worst = idx.(dim) and second_worst = idx.(dim - 1) in
    let spread =
      Float.abs (values.(worst) -. values.(best))
      /. (1. +. Float.abs values.(best))
    in
    (* equal values alone are not convergence: a simplex straddling the
       minimum symmetrically ties exactly; demand a small diameter too *)
    let diameter =
      Array.fold_left
        (fun acc v ->
          Float.max acc (norm_inf (sub v vertices.(best))))
        0. vertices
    in
    let x_scale = 1. +. norm_inf vertices.(best) in
    if spread <= tol && diameter <= sqrt tol *. x_scale then converged := true
    else if spread <= tol then shrink_toward best
    else begin
      let c = centroid worst in
      (* reflection: c + alpha (c - worst) *)
      let reflected = blend c vertices.(worst) (-.alpha) in
      let f_reflected = f reflected in
      if f_reflected < values.(best) then begin
        (* expansion *)
        let expanded = blend c vertices.(worst) (-.(alpha *. gamma)) in
        let f_expanded = f expanded in
        if f_expanded < f_reflected then begin
          vertices.(worst) <- expanded;
          values.(worst) <- f_expanded
        end
        else begin
          vertices.(worst) <- reflected;
          values.(worst) <- f_reflected
        end
      end
      else if f_reflected < values.(second_worst) then begin
        vertices.(worst) <- reflected;
        values.(worst) <- f_reflected
      end
      else begin
        (* contraction (outside if the reflection helped at all) *)
        let contracted =
          if f_reflected < values.(worst) then blend c reflected rho
          else blend c vertices.(worst) rho
        in
        let f_contracted = f contracted in
        if f_contracted < Float.min f_reflected values.(worst) then begin
          vertices.(worst) <- contracted;
          values.(worst) <- f_contracted
        end
        else shrink_toward best
      end
    end
  done;
  let idx = order () in
  { x = Array.copy vertices.(idx.(0));
    fx = values.(idx.(0));
    iterations = !iterations;
    converged = !converged }

let restarted ?tol ?scale ~f x0 =
  let rec go round incumbent =
    if round >= 4 then incumbent
    else begin
      let next = minimize ?tol ?scale ~f incumbent.x in
      if next.fx < incumbent.fx -. (1e-12 *. (1. +. Float.abs incumbent.fx)) then
        go (round + 1)
          { next with iterations = incumbent.iterations + next.iterations }
      else { incumbent with converged = true }
    end
  in
  let first = minimize ?tol ?scale ~f x0 in
  go 1 first
