type result = {
  error_cost : float;
  probe_cost : float;
  optimum : Optimize.point;
  r_residual : float;
}

(* Eq. 3 split as C_n(r) = (A(r) + E B(r)) / D(r) with
   A = (r+c) G,  G = n(1-q) + q sum_{i<n} pi_i,
   B = q pi_n,   D = 1 - q (1 - pi_n). *)
let error_cost_for_stationarity (p : Params.t) ~n ~r =
  let at r =
    let k = Kernel.create p ~r in
    Kernel.advance_to k ~n;
    k
  in
  let g r = (float_of_int n *. (1. -. p.q)) +. (p.q *. Kernel.sum_pi (at r)) in
  let b r = p.q *. Kernel.pi (at r) in
  let d r = 1. -. (p.q *. (1. -. Kernel.pi (at r))) in
  let a r = (r +. p.probe_cost) *. g r in
  let da = Numerics.Derivative.richardson ~f:a r in
  let db = Numerics.Derivative.richardson ~f:b r in
  let dd = Numerics.Derivative.richardson ~f:d r in
  let av = a r and bv = b r and dv = d r in
  let denom = (db *. dv) -. (bv *. dd) in
  if denom = 0. then
    failwith "Calibrate.error_cost_for_stationarity: degenerate stationarity";
  let e = ((av *. dd) -. (da *. dv)) /. denom in
  if not (Float.is_finite e) || e <= 0. then
    failwith
      (Printf.sprintf
         "Calibrate.error_cost_for_stationarity: no positive solution (E = %g)"
         e);
  e

let run (p : Params.t) ~n ~r =
  let c_hi = 64. and tol = 1e-3 in
  if n < 1 then invalid_arg "Calibrate.run: n < 1";
  if r <= 0. then invalid_arg "Calibrate.run: r <= 0";
  let scenario_with c =
    let p' = Params.with_costs ~probe_cost:c p in
    let e = error_cost_for_stationarity p' ~n ~r in
    Params.with_costs ~error_cost:e p'
  in
  let target_is_optimal c =
    let opt = Optimize.global_optimum (scenario_with c) in
    opt.Optimize.n = n
  in
  (* geometric scan for the first postage making n* optimal, then
     bisection down to tol *)
  let rec scan c prev =
    if c > c_hi then
      failwith
        (Printf.sprintf "Calibrate.run: no postage <= %g makes n = %d optimal"
           c_hi n)
    else if target_is_optimal c then (prev, c)
    else scan (c *. 2.) c
  in
  let lo, hi = scan 0.0625 0. in
  let rec bisect lo hi =
    if hi -. lo <= tol then hi
    else
      let mid = 0.5 *. (lo +. hi) in
      if target_is_optimal mid then bisect lo mid else bisect mid hi
  in
  let c_star = bisect lo hi in
  let calibrated = scenario_with c_star in
  let optimum = Optimize.global_optimum calibrated in
  let r_opt = (Optimize.optimal_r calibrated ~n).Numerics.Minimize.x in
  { error_cost = calibrated.Params.error_cost;
    probe_cost = c_star;
    optimum;
    r_residual = Float.abs (r_opt -. r) }
