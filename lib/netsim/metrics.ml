type sample = {
  cost : float array;
  config_time : float array;
  address : int array;
  collided : bool array;
  probes_sent : int array;
  restarts : int array;
}

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

let create trials : sample =
  if trials < 1 then invalid_arg "Metrics.create: trials < 1";
  { cost = Array.create_float trials;
    config_time = Array.create_float trials;
    address = Array.make trials 0;
    collided = Array.make trials false;
    probes_sent = Array.make trials 0;
    restarts = Array.make trials 0 }

let length (s : sample) = Array.length s.cost

let store (s : sample) i (o : outcome) =
  s.cost.(i) <- o.cost;
  s.config_time.(i) <- o.config_time;
  s.address.(i) <- o.address;
  s.collided.(i) <- o.collided;
  s.probes_sent.(i) <- o.probes_sent;
  s.restarts.(i) <- o.restarts

let outcome (s : sample) i : outcome =
  { address = s.address.(i);
    collided = s.collided.(i);
    probes_sent = s.probes_sent.(i);
    restarts = s.restarts.(i);
    config_time = s.config_time.(i);
    cost = s.cost.(i) }

let mean_interval column =
  let s = Numerics.Stats.summarize column in
  let ci_lo, ci_hi = Numerics.Stats.summary_ci s in
  { mean = s.Numerics.Stats.mean; ci_lo; ci_hi }

let cost_interval (s : sample) = mean_interval s.cost
let config_time_interval (s : sample) = mean_interval s.config_time

let count_collisions (s : sample) =
  Array.fold_left (fun acc hit -> if hit then acc + 1 else acc) 0 s.collided

let collision_interval s =
  let trials = length s in
  let collisions = count_collisions s in
  let ci_lo, ci_hi =
    Numerics.Stats.proportion_ci ~successes:collisions trials
  in
  { mean = float_of_int collisions /. float_of_int trials; ci_lo; ci_hi }

let aggregate (s : sample) =
  let trials = length s in
  let collisions = count_collisions s in
  let cost = Numerics.Stats.summarize s.cost in
  let mean_of column =
    Numerics.Safe_float.sum_by float_of_int column /. float_of_int trials
  in
  { trials;
    collisions;
    collision_rate = float_of_int collisions /. float_of_int trials;
    collision_ci = Numerics.Stats.proportion_ci ~successes:collisions trials;
    cost;
    cost_ci = Numerics.Stats.summary_ci cost;
    config_time = Numerics.Stats.summarize s.config_time;
    mean_probes = mean_of s.probes_sent;
    mean_restarts = mean_of s.restarts }

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
