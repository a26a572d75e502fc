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

let pp ppf d =
  if d.mass < 1. then
    Format.fprintf ppf "%s (defective, loss %.3g)" d.name (1. -. d.mass)
  else Format.fprintf ppf "%s" d.name
