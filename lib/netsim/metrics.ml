type outcome = {
  address : int;
  collided : bool;
  probes_sent : int;
  restarts : int;
  config_time : float;
  cost : float;
}

type interval = { mean : float; ci_lo : float; ci_hi : float }

type aggregate = {
  trials : int;
  collisions : int;
  collision_rate : float;
  collision_ci : float * float;
  cost : Numerics.Stats.summary;
  cost_ci : float * float;
  config_time : Numerics.Stats.summary;
  mean_probes : float;
  mean_restarts : float;
}

let cost_of (o : outcome) = o.cost
let config_time_of (o : outcome) = o.config_time

let mean_interval field outcomes =
  let s = Numerics.Stats.summarize_by field outcomes in
  let ci_lo, ci_hi = Numerics.Stats.summary_ci s in
  { mean = s.Numerics.Stats.mean; ci_lo; ci_hi }

let cost_interval outcomes = mean_interval cost_of outcomes
let config_time_interval outcomes = mean_interval config_time_of outcomes

let count_collisions outcomes =
  Array.fold_left
    (fun acc (o : outcome) -> if o.collided then acc + 1 else acc)
    0 outcomes

let collision_interval outcomes =
  let trials = Array.length outcomes in
  let collisions = count_collisions outcomes in
  let ci_lo, ci_hi =
    Numerics.Stats.proportion_ci ~successes:collisions trials
  in
  { mean = float_of_int collisions /. float_of_int trials; ci_lo; ci_hi }

let aggregate outcomes =
  let trials = Array.length outcomes in
  if trials = 0 then invalid_arg "Metrics.aggregate: no outcomes";
  let collisions = count_collisions outcomes in
  let cost = Numerics.Stats.summarize_by cost_of outcomes in
  let mean_of count =
    Numerics.Safe_float.sum_by (fun o -> float_of_int (count o)) outcomes
    /. float_of_int trials
  in
  { trials;
    collisions;
    collision_rate = float_of_int collisions /. float_of_int trials;
    collision_ci = Numerics.Stats.proportion_ci ~successes:collisions trials;
    cost;
    cost_ci = Numerics.Stats.summary_ci cost;
    config_time = Numerics.Stats.summarize_by config_time_of outcomes;
    mean_probes = mean_of (fun (o : outcome) -> o.probes_sent);
    mean_restarts = mean_of (fun (o : outcome) -> o.restarts) }

let pp_aggregate ppf a =
  let lo, hi = a.collision_ci and clo, chi = a.cost_ci in
  Format.fprintf ppf
    "@[<v>%d trials:@,\
    \  collisions: %d (rate %.3g, 95%% CI [%.3g, %.3g])@,\
    \  mean cost: %.4g (95%% CI [%.4g, %.4g])@,\
    \  mean config time: %.4g s (min %.3g, max %.3g)@,\
    \  mean probes: %.3g; mean restarts: %.3g@]"
    a.trials a.collisions a.collision_rate lo hi a.cost.Numerics.Stats.mean clo
    chi a.config_time.Numerics.Stats.mean a.config_time.Numerics.Stats.min
    a.config_time.Numerics.Stats.max a.mean_probes a.mean_restarts
