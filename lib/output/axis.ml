type t = { lo : float; hi : float }

let create ~lo ~hi () =
  if not (lo < hi) then invalid_arg "Axis.create: need lo < hi";
  { lo; hi }

let lo t = t.lo
let hi t = t.hi

let project t v =
  Numerics.Safe_float.clamp ~lo:0. ~hi:1. ((v -. t.lo) /. (t.hi -. t.lo))

let label v =
  let a = Float.abs v in
  if v = 0. then "0"
  else if a >= 1e5 || a < 1e-3 then Printf.sprintf "%.0e" v
  else if Float.is_integer v && a < 1e5 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3g" v

(* ticks at a "nice" step: 1, 2 or 5 times a power of ten *)
let nice_step span target =
  let raw = span /. float_of_int target in
  let mag = 10. ** Float.floor (log10 raw) in
  let residual = raw /. mag in
  let mult = if residual <= 1.5 then 1. else if residual <= 3.5 then 2. else if residual <= 7.5 then 5. else 10. in
  mult *. mag

let ticks t =
  let step = nice_step (t.hi -. t.lo) 6 in
  let first = Float.ceil (t.lo /. step) *. step in
  let rec collect v acc =
    if v > t.hi +. (1e-9 *. step) then List.rev acc
    else
      let v' = if Float.abs v < 1e-12 *. step then 0. else v in
      collect (v +. step) ((v', label v') :: acc)
  in
  collect first []

(* min and max of the finite values, in one pass with no list *)
let of_data ?(pad = 0.05) data =
  if Array.length data = 0 then invalid_arg "Axis.of_data: empty data";
  let lo = ref infinity and hi = ref neg_infinity in
  for i = 0 to Array.length data - 1 do
    let v = data.(i) in
    if Float.is_finite v then begin
      lo := Float.min !lo v;
      hi := Float.max !hi v
    end
  done;
  let lo = !lo and hi = !hi in
  if lo > hi then invalid_arg "Axis.of_data: no finite data";
  let span = if hi > lo then hi -. lo else Float.max 1. (Float.abs lo) in
  create ~lo:(lo -. (pad *. span)) ~hi:(hi +. (pad *. span)) ()
