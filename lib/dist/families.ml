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

let exponential ?(mass = 1.) ~rate () =
  check_rate "Families.exponential" rate;
  let survival t = if t <= 0. then 1. else (1. -. mass) +. (mass *. exp (-.rate *. t)) in
  Distribution.v ~name:(Printf.sprintf "exp(rate=%g)" rate) ~mass
    ~density:(fun t -> if t < 0. then 0. else mass *. rate *. exp (-.rate *. t))
    ~mean:(1. /. rate)
    ~cdf:(fun t -> if t <= 0. then 0. else mass *. (-.Float.expm1 (-.rate *. t)))
    ~survival
    ~sample:(defective_sample mass (fun rng -> Rng.exponential rng ~rate))
    ()

let shifted_exponential ?(mass = 1.) ~rate ~delay () =
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

let deterministic ?(mass = 1.) ~delay () =
  check_delay "Families.deterministic" delay;
  Distribution.v ~name:(Printf.sprintf "deterministic(d=%g)" delay) ~mass
    ~mean:delay
    ~cdf:(fun t -> if t >= delay then mass else 0.)
    ~survival:(fun t -> if t >= delay then 1. -. mass else 1.)
    ~sample:(defective_sample mass (fun _ -> delay))
    ()

let uniform ?(mass = 1.) ~lo ~hi () =
  if not (0. <= lo && lo < hi && hi < infinity) then
    invalid_arg "Families.uniform: need 0 <= lo < hi < inf";
  let width = hi -. lo in
  let cdf t =
    if t <= lo then 0.
    else if t >= hi then mass
    else mass *. (t -. lo) /. width
  in
  Distribution.v ~name:(Printf.sprintf "uniform[%g, %g]" lo hi) ~mass
    ~density:(fun t -> if t < lo || t > hi then 0. else mass /. width)
    ~mean:(0.5 *. (lo +. hi))
    ~cdf
    ~survival:(fun t -> 1. -. cdf t)
    ~sample:(defective_sample mass (fun rng -> Rng.uniform rng ~lo ~hi))
    ()

let erlang ?(mass = 1.) ?(delay = 0.) ~stages ~rate () =
  if stages < 1 then invalid_arg "Families.erlang: stages < 1";
  if not (rate > 0. && rate < infinity) then
    invalid_arg "Families.erlang: rate outside (0, inf)";
  check_delay "Families.erlang" delay;
  (* Survival of Erlang-k: e^{-rt} * sum_{i<k} (rt)^i / i!, summed in
     increasing order so the partial sums stay accurate. *)
  let core_survival u =
    if u <= 0. then 1.
    else begin
      let x = rate *. u in
      let term = ref 1. and acc = ref 1. in
      for i = 1 to stages - 1 do
        term := !term *. x /. float_of_int i;
        acc := !acc +. !term
      done;
      exp (-.x) *. !acc
    end
  in
  let survival t =
    if t <= delay then 1.
    else (1. -. mass) +. (mass *. core_survival (t -. delay))
  in
  let cdf t = if t <= delay then 0. else mass *. (1. -. core_survival (t -. delay)) in
  let density t =
    if t <= delay then 0.
    else begin
      let u = t -. delay in
      let x = rate *. u in
      (* rate * x^(k-1) e^{-x} / (k-1)! *)
      let log_fact = ref 0. in
      for i = 2 to stages - 1 do
        log_fact := !log_fact +. log (float_of_int i)
      done;
      mass *. rate *. exp ((float_of_int (stages - 1) *. log x) -. x -. !log_fact)
    end
  in
  let conditional rng =
    let acc = ref delay in
    for _ = 1 to stages do
      acc := !acc +. Rng.exponential rng ~rate
    done;
    !acc
  in
  Distribution.v
    ~name:(Printf.sprintf "erlang(k=%d, rate=%g, d=%g)" stages rate delay)
    ~mass ~density
    ~mean:(delay +. (float_of_int stages /. rate))
    ~cdf ~survival
    ~sample:(defective_sample mass conditional)
    ()
