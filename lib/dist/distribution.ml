type t = {
  name : string;
  mass : float;
  cdf : float -> float;
  survival : float -> float;
  density : (float -> float) option;
  mean : float option;
  sample : Numerics.Rng.t -> float option;
}

let v ~name ?(mass = 1.) ?density ?mean ~cdf ~survival ~sample () =
  if not (mass > 0. && mass <= 1.) then
    invalid_arg "Distribution.v: mass must lie in (0, 1]";
  { name; mass; cdf; survival; density; mean; sample }

let is_defective d = d.mass < 1.
let loss_probability d = 1. -. d.mass
let conditional_cdf d t = d.cdf t /. d.mass

let quantile d p =
  if p < 0. then invalid_arg "Distribution.quantile: p < 0";
  if p >= d.mass then
    invalid_arg "Distribution.quantile: p >= mass (reply never arrives)";
  if p = 0. then 0.
  else begin
    (* find an upper bound, then bisect cdf t - p *)
    let hi = ref 1. in
    let guard = ref 0 in
    while d.cdf !hi < p && !guard < 200 do
      hi := !hi *. 2.;
      incr guard
    done;
    if d.cdf !hi < p then invalid_arg "Distribution.quantile: cannot bracket";
    (Numerics.Roots.bisect ~f:(fun t -> d.cdf t -. p) 0. !hi).root
  end

let check d =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let grid = Numerics.Grid.linspace 0. 100. 200 in
  let rec scan i prev =
    if i >= Array.length grid then Ok ()
    else
      let t = grid.(i) in
      let c = d.cdf t and s = d.survival t in
      if Float.is_nan c || c < -1e-12 || c > d.mass +. 1e-9 then
        err "%s: cdf %g out of [0, %g] at t=%g" d.name c d.mass t
      else if not (s >= 0. && s <= 1.) || Float.sign_bit s then
        err "%s: survival %g out of [+0, 1] at t=%g" d.name s t
      else if c +. 1e-9 < prev then
        err "%s: cdf not monotone at t=%g (%g < %g)" d.name t c prev
      else if not (Numerics.Safe_float.approx_eq ~rtol:1e-6 ~atol:1e-12 (c +. s) 1.)
      then err "%s: cdf + survival = %g <> 1 at t=%g" d.name (c +. s) t
      else scan (i + 1) c
  in
  scan 0 0.

let pp ppf d =
  if is_defective d then
    Format.fprintf ppf "%s (defective, loss %.3g)" d.name (1. -. d.mass)
  else Format.fprintf ppf "%s" d.name
