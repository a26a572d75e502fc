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

let cost_elasticity p knob ~n ~r =
  let f v = Cost.mean (knob.apply p v) ~n ~r in
  (* x f'(x) / f(x) is 0 at x = 0 wherever f(0) is finite and positive,
     and log-space differencing cannot reach x = 0 *)
  match knob.value with
  | 0. when Float.is_finite (f 0.) && f 0. > 0. -> 0.
  | x -> Numerics.Derivative.log_elasticity ~f x
