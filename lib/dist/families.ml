module Rng = Numerics.Rng

(* Shared sampling skeleton: lose the reply with probability 1 - mass,
   otherwise draw from the conditional delay law. *)
let defective_sample mass conditional rng =
  if mass < 1. && Rng.float rng >= mass then None else Some (conditional rng)

(* Every range check below is written so that a NaN fails it.  An
   infinite rate is the deterministic-delay limit and stays legal; an
   infinite delay or bound is not. *)
let check_rate fn rate =
  if not (rate > 0.) then invalid_arg (fn ^ ": rate outside (0, inf]")

let check_delay fn delay =
  if not (delay >= 0. && delay < infinity) then
    invalid_arg (fn ^ ": delay outside [0, inf)")

let exponential ~rate () =
  check_rate "Families.exponential" rate;
  Distribution.v ~name:(Printf.sprintf "exp(rate=%g)" rate)
    ~density:(fun t -> if t < 0. then 0. else rate *. exp (-.rate *. t))
    ~mean:(1. /. rate)
    ~cdf:(fun t -> if t <= 0. then 0. else -.Float.expm1 (-.rate *. t))
    ~survival:(fun t -> if t <= 0. then 1. else exp (-.rate *. t))
    ~sample:(fun rng -> Some (Rng.exponential rng ~rate))
    ()

let shifted_exponential ~mass ~rate ~delay () =
  check_rate "Families.shifted_exponential" rate;
  check_delay "Families.shifted_exponential" delay;
  let cdf t =
    if t <= delay then 0. else mass *. (-.Float.expm1 (-.rate *. (t -. delay)))
  in
  let survival t =
    if t <= delay then 1. else (1. -. mass) +. (mass *. exp (-.rate *. (t -. delay)))
  in
  Distribution.v
    ~name:(Printf.sprintf "shifted-exp(d=%g, rate=%g, l=%g)" delay rate mass)
    ~mass
    ~density:(fun t ->
      if t < delay then 0. else mass *. rate *. exp (-.rate *. (t -. delay)))
    ~mean:(delay +. (1. /. rate))
    ~cdf ~survival
    ~sample:(defective_sample mass (fun rng -> delay +. Rng.exponential rng ~rate))
    ()

let deterministic ~delay () =
  check_delay "Families.deterministic" delay;
  Distribution.v ~name:(Printf.sprintf "deterministic(d=%g)" delay)
    ~mean:delay
    ~cdf:(fun t -> if t >= delay then 1. else 0.)
    ~survival:(fun t -> if t >= delay then 0. else 1.)
    ~sample:(fun _ -> Some delay)
    ()

let uniform ~lo ~hi () =
  if not (0. <= lo && lo < hi && hi < infinity) then
    invalid_arg "Families.uniform: need 0 <= lo < hi < inf";
  let width = hi -. lo in
  let cdf t =
    if t <= lo then 0. else if t >= hi then 1. else (t -. lo) /. width
  in
  Distribution.v ~name:(Printf.sprintf "uniform[%g, %g]" lo hi)
    ~density:(fun t -> if t < lo || t > hi then 0. else 1. /. width)
    ~mean:(0.5 *. (lo +. hi))
    ~cdf
    ~survival:(fun t -> 1. -. cdf t)
    ~sample:(fun rng -> Some (Rng.uniform rng ~lo ~hi))
    ()

