type t = {
  name : string;
  mass : float;
  cdf : float -> float;
  survival : float -> float;
  density : (float -> float) option;
  mean : float;
  sample : Numerics.Rng.t -> float option;
}

let v ~name ?(mass = 1.) ?density ~mean ~cdf ~survival ~sample () =
  if not (mass > 0. && mass <= 1.) then
    invalid_arg "Distribution.v: mass must lie in (0, 1]";
  { name; mass; cdf; survival; density; mean; sample }

let loss_probability d = 1. -. d.mass
let conditional_cdf d t = d.cdf t /. d.mass

let pp ppf d =
  if d.mass < 1. then
    Format.fprintf ppf "%s (defective, loss %.3g)" d.name (1. -. d.mass)
  else Format.fprintf ppf "%s" d.name
