type scale = Linear | Log10
type t = { scale : scale; lo : float; hi : float }

let create ?(scale = Linear) ~lo ~hi () =
  if not (lo < hi) then invalid_arg "Axis.create: need lo < hi";
  (match scale with
  | Log10 when lo <= 0. -> invalid_arg "Axis.create: log axis needs lo > 0"
  | Log10 | Linear -> ());
  { scale; lo; hi }

let lo t = t.lo
let hi t = t.hi

let project t v =
  let frac =
    match t.scale with
    | Linear -> (v -. t.lo) /. (t.hi -. t.lo)
    | Log10 ->
        if v <= 0. then 0.
        else (log10 v -. log10 t.lo) /. (log10 t.hi -. log10 t.lo)
  in
  Numerics.Safe_float.clamp ~lo:0. ~hi:1. frac

let label v =
  let a = Float.abs v in
  if v = 0. then "0"
  else if a >= 1e5 || a < 1e-3 then Printf.sprintf "%.0e" v
  else if Float.is_integer v && a < 1e5 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3g" v

(* linear ticks at a "nice" step: 1, 2 or 5 times a power of ten *)
let nice_step span target =
  let raw = span /. float_of_int target in
  let mag = 10. ** Float.floor (log10 raw) in
  let residual = raw /. mag in
  let mult = if residual <= 1.5 then 1. else if residual <= 3.5 then 2. else if residual <= 7.5 then 5. else 10. in
  mult *. mag

let ticks t =
  let target = 6 in
  match t.scale with
  | Linear ->
      let step = nice_step (t.hi -. t.lo) target in
      let first = Float.ceil (t.lo /. step) *. step in
      let rec collect v acc =
        if v > t.hi +. (1e-9 *. step) then List.rev acc
        else
          let v' = if Float.abs v < 1e-12 *. step then 0. else v in
          collect (v +. step) ((v', label v') :: acc)
      in
      collect first []
  | Log10 ->
      let lo_exp = int_of_float (Float.ceil (log10 t.lo -. 1e-9)) in
      let hi_exp = int_of_float (Float.floor (log10 t.hi +. 1e-9)) in
      let count = hi_exp - lo_exp + 1 in
      let stride = max 1 (count / target) in
      List.filter_map
        (fun e ->
          if (e - lo_exp) mod stride = 0 then
            let v = 10. ** float_of_int e in
            Some (v, Printf.sprintf "1e%d" e)
          else None)
        (List.init count (fun i -> lo_exp + i))

let of_data ?(pad = 0.05) data =
  if Array.length data = 0 then invalid_arg "Axis.of_data: empty data";
  let finite = Array.of_list (List.filter Float.is_finite (Array.to_list data)) in
  if Array.length finite = 0 then invalid_arg "Axis.of_data: no finite data";
  let lo = Array.fold_left Float.min finite.(0) finite in
  let hi = Array.fold_left Float.max finite.(0) finite in
  let span = if hi > lo then hi -. lo else Float.max 1. (Float.abs lo) in
  create ~lo:(lo -. (pad *. span)) ~hi:(hi +. (pad *. span)) ()
