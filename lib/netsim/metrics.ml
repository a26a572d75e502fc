type sample = {
  cost : float array;
  config_time : float array;
  mutable collisions : int;
  sums : float array;
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
    collisions = 0;
    sums = Array.make 4 0. }

let length (s : sample) = Array.length s.cost

(* One step of [Safe_float.sum_by]'s Neumaier sum, on the (sum,
   compensation) pair at [k], [k + 1] of a flat float array, so the
   running total boxes nothing *)
let[@inline] add sums k x =
  let s = sums.(k) in
  let t = s +. x in
  let c = if Float.abs s >= Float.abs x then (s -. t) +. x else (x -. t) +. s in
  sums.(k + 1) <- sums.(k + 1) +. c;
  sums.(k) <- t

let tally (s : sample) ~collided ~probes ~restarts =
  if collided then s.collisions <- s.collisions + 1;
  add s.sums 0 (float_of_int probes);
  add s.sums 2 (float_of_int restarts)

let store (s : sample) i (o : outcome) =
  s.cost.(i) <- o.cost;
  s.config_time.(i) <- o.config_time;
  tally s ~collided:o.collided ~probes:o.probes_sent ~restarts:o.restarts

let mean_interval column =
  let s = Numerics.Stats.summarize column in
  let ci_lo, ci_hi = Numerics.Stats.summary_ci s in
  { mean = s.Numerics.Stats.mean; ci_lo; ci_hi }

let cost_interval (s : sample) = mean_interval s.cost
let config_time_interval (s : sample) = mean_interval s.config_time

let collision_interval (s : sample) =
  let trials = length s in
  let ci_lo, ci_hi =
    Numerics.Stats.proportion_ci ~successes:s.collisions trials
  in
  { mean = float_of_int s.collisions /. float_of_int trials; ci_lo; ci_hi }

let aggregate (s : sample) =
  let trials = length s and collisions = s.collisions in
  let cost = Numerics.Stats.summarize s.cost in
  let mean_of k = (s.sums.(k) +. s.sums.(k + 1)) /. float_of_int trials in
  { trials;
    collisions;
    collision_rate = float_of_int collisions /. float_of_int trials;
    collision_ci = Numerics.Stats.proportion_ci ~successes:collisions trials;
    cost;
    cost_ci = Numerics.Stats.summary_ci cost;
    config_time = Numerics.Stats.summarize s.config_time;
    mean_probes = mean_of 0;
    mean_restarts = mean_of 2 }

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
