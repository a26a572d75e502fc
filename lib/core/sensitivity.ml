type knob = {
  name : string;
  value : float;
  apply : Params.t -> float -> Params.t;
}

let standard_knobs (p : Params.t) =
  [ { name = "q"; value = p.q; apply = Params.with_q };
    { name = "c";
      value = p.probe_cost;
      apply = (fun p c -> Params.with_costs ~probe_cost:c p) };
    { name = "E";
      value = p.error_cost;
      apply = (fun p e -> Params.with_costs ~error_cost:e p) } ]

let shifted_exp_knobs ~loss ~rate ~delay =
  let rebuild ~loss ~rate ~delay p =
    Params.with_delay p
      (Dist.Families.shifted_exponential ~mass:(1. -. loss) ~rate ~delay ())
  in
  [ { name = "loss";
      value = loss;
      apply = (fun p v -> rebuild ~loss:v ~rate ~delay p) };
    { name = "lambda";
      value = rate;
      apply = (fun p v -> rebuild ~loss ~rate:v ~delay p) };
    { name = "rtt";
      value = delay;
      apply = (fun p v -> rebuild ~loss ~rate ~delay:v p) } ]

let cost_elasticity p knob ~n ~r =
  let f v = Cost.mean (knob.apply p v) ~n ~r in
  (* x f'(x) / f(x) is 0 at x = 0 wherever f(0) is finite and positive,
     and log-space differencing cannot reach x = 0 *)
  match knob.value with
  | 0. when Float.is_finite (f 0.) && f 0. > 0. -> 0.
  | x -> Numerics.Derivative.log_elasticity ~f x

type tornado_entry = {
  knob_name : string;
  low : float;
  base : float;
  high : float;
}

let tornado ?(swing = 2.) ~output p knobs =
  if swing <= 1. then invalid_arg "Sensitivity.tornado: swing must exceed 1";
  let base = output p in
  let entries =
    List.map
      (fun k ->
        { knob_name = k.name;
          low = output (k.apply p (k.value /. swing));
          base;
          high = output (k.apply p (k.value *. swing)) })
      knobs
  in
  List.sort
    (fun a b ->
      Float.compare
        (Float.abs (b.high -. b.low))
        (Float.abs (a.high -. a.low)))
    entries
