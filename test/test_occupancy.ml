(* The aggregate runner's lazily revealed occupancy, validated against an
   eager reference sampler and on pools small enough to reason about
   exactly.

   [eager_run] below is the aggregate trial as it was before the lazy
   rewrite: it fills a real Address_pool with [occupied] uniformly
   random hosts, then draws candidates from it.  Both samplers must have
   the same law; on small, high-occupancy pools (where collisions and
   restarts are common) their collision rates, per-trial cost histograms
   and mean costs are compared with two-sample tests at a fixed
   significance level.  A sample keeps each trial's cost and time and
   the run's count totals, so per-trial checks read the cost column. *)

module Scenario = Netsim.Scenario
module Newcomer = Netsim.Newcomer
module Metrics = Netsim.Metrics
module Pool = Netsim.Address_pool
module Rng = Numerics.Rng
module Stats = Numerics.Stats

(* ---------------- eager reference sampler ---------------- *)

let eager_trial ~(delay : Dist.Distribution.t) ~pool ~rng
    ~(config : Newcomer.config) =
  let n = config.Newcomer.probes and r = config.Newcomer.listen in
  let step_cost = r +. config.Newcomer.probe_cost in
  let probes = ref 0 and restarts = ref 0 in
  let cost = ref 0. and time = ref 0. in
  let failed = Hashtbl.create 8 in
  let draw_candidate () =
    let c = ref (Pool.random_candidate pool ~rng) in
    if config.Newcomer.avoid_failed then begin
      let guard = ref 0 in
      while Hashtbl.mem failed !c && !guard < 10_000 do
        c := Pool.random_candidate pool ~rng;
        incr guard
      done
    end;
    !c
  in
  let rate_limit_delay () =
    match config.Newcomer.rate_limit with
    | Some (threshold, delay) when !restarts >= threshold -> delay
    | Some _ | None -> 0.
  in
  let rec attempt () =
    let candidate = draw_candidate () in
    if not (Pool.is_occupied pool candidate) then begin
      probes := !probes + n;
      cost := !cost +. (float_of_int n *. step_cost);
      time := !time +. (float_of_int n *. r);
      (candidate, false)
    end
    else begin
      let first_arrival = ref infinity in
      for i = 1 to n do
        match delay.sample rng with
        | None -> ()
        | Some x ->
            let arrival = (float_of_int (i - 1) *. r) +. x in
            if arrival < !first_arrival then first_arrival := arrival
      done;
      if !first_arrival > float_of_int n *. r then begin
        probes := !probes + n;
        cost :=
          !cost +. (float_of_int n *. step_cost) +. config.Newcomer.error_cost;
        time := !time +. (float_of_int n *. r);
        (candidate, true)
      end
      else begin
        let k = int_of_float (Float.ceil (!first_arrival /. r)) in
        let k = max 1 (min n k) in
        probes := !probes + k;
        cost := !cost +. (float_of_int k *. step_cost);
        time :=
          !time
          +.
          if config.Newcomer.immediate_abort then !first_arrival
          else float_of_int k *. r;
        Hashtbl.replace failed candidate ();
        incr restarts;
        let delay = rate_limit_delay () in
        time := !time +. delay;
        cost := !cost +. delay;
        attempt ()
      end
    end
  in
  let address, collided = attempt () in
  { Metrics.address;
    collided;
    probes_sent = !probes;
    restarts = !restarts;
    config_time = !time;
    cost = !cost }

let eager_run ~delay ~occupied ~pool_size ~config ~trials ~rng =
  Array.init trials (fun _ ->
      let pool = Pool.create ~size:pool_size () in
      for _ = 1 to occupied do
        ignore (Pool.claim_random_free pool ~rng)
      done;
      eager_trial ~delay ~pool ~rng ~config)

(* ---------------- reference lazy sampler ---------------- *)

(* The lazy trial as it was first written: revealed candidates in a
   Hashtbl made per trial, attempts as closures.  The runner's lean
   loop must draw the same numbers in the same order, so its outcomes
   are bitwise these. *)
let reference_trial ~(delay : Dist.Distribution.t) ~size ~occupied ~rng
    ~(config : Newcomer.config) =
  let n = config.Newcomer.probes and r = config.Newcomer.listen in
  let step_cost = r +. config.Newcomer.probe_cost in
  let probes = ref 0 and restarts = ref 0 in
  let cost = ref 0. and time = ref 0. in
  let revealed = Hashtbl.create 8 in
  let seen_occupied = ref 0 in
  let is_occupied candidate =
    match Hashtbl.find_opt revealed candidate with
    | Some busy -> busy
    | None ->
        let seen = Hashtbl.length revealed in
        let busy = Rng.int rng (size - seen) < occupied - !seen_occupied in
        Hashtbl.add revealed candidate busy;
        if busy then incr seen_occupied;
        busy
  in
  let failed candidate = Hashtbl.find_opt revealed candidate = Some true in
  let draw_candidate () =
    let c = ref (Rng.int rng size) in
    if config.Newcomer.avoid_failed then begin
      let guard = ref 0 in
      while failed !c && !guard < 10_000 do
        c := Rng.int rng size;
        incr guard
      done
    end;
    !c
  in
  let rate_limit_delay () =
    match config.Newcomer.rate_limit with
    | Some (threshold, delay) when !restarts >= threshold -> delay
    | Some _ | None -> 0.
  in
  let rec attempt () =
    let candidate = draw_candidate () in
    if not (is_occupied candidate) then begin
      probes := !probes + n;
      cost := !cost +. (float_of_int n *. step_cost);
      time := !time +. (float_of_int n *. r);
      (candidate, false)
    end
    else begin
      let first_arrival = ref infinity in
      for i = 1 to n do
        match delay.sample rng with
        | None -> ()
        | Some x ->
            let arrival = (float_of_int (i - 1) *. r) +. x in
            if arrival < !first_arrival then first_arrival := arrival
      done;
      if !first_arrival > float_of_int n *. r then begin
        probes := !probes + n;
        cost :=
          !cost +. (float_of_int n *. step_cost) +. config.Newcomer.error_cost;
        time := !time +. (float_of_int n *. r);
        (candidate, true)
      end
      else begin
        let k = int_of_float (Float.ceil (!first_arrival /. r)) in
        let k = max 1 (min n k) in
        probes := !probes + k;
        cost := !cost +. (float_of_int k *. step_cost);
        time :=
          !time
          +.
          if config.Newcomer.immediate_abort then !first_arrival
          else float_of_int k *. r;
        incr restarts;
        let delay = rate_limit_delay () in
        time := !time +. delay;
        cost := !cost +. delay;
        attempt ()
      end
    end
  in
  let address, collided = attempt () in
  { Metrics.address;
    collided;
    probes_sent = !probes;
    restarts = !restarts;
    config_time = !time;
    cost = !cost }

(* [Stats.summarize] and [Metrics.aggregate] as they were first written,
   over arrays copied out of outcome records *)
let reference_summarize xs =
  let n = Array.length xs in
  let mean = Numerics.Safe_float.mean xs in
  (* A deviation is squared as [d ** 2.], not [d *. d], here and in
     [Stats.summarize]: the two disagree in the last bit often enough to
     move a bound (with glibc 2.36, on 42,575 of 50M uniform draws from
     [0, 1)), so the square stays a [pow] and every Monte-Carlo interval
     stays bitwise what it was. *)
  let variance =
    if n < 2 then 0.
    else
      Numerics.Safe_float.sum (Array.map (fun x -> (x -. mean) ** 2.) xs)
      /. float_of_int (n - 1)
  in
  { Stats.n;
    mean;
    variance;
    std = sqrt variance;
    min = Array.fold_left Float.min xs.(0) xs;
    max = Array.fold_left Float.max xs.(0) xs }

let reference_mean_ci xs =
  let s = reference_summarize xs in
  if s.Stats.n < 2 then (s.Stats.mean, s.Stats.mean)
  else
    let half =
      Oracle.normal_quantile 0.975 *. s.Stats.std /. sqrt (float_of_int s.Stats.n)
    in
    (s.Stats.mean -. half, s.Stats.mean +. half)

let reference_aggregate outcomes =
  let trials = Array.length outcomes in
  let collisions =
    Array.fold_left
      (fun acc (o : Metrics.outcome) -> if o.Metrics.collided then acc + 1 else acc)
      0 outcomes
  in
  let costs = Array.map (fun (o : Metrics.outcome) -> o.Metrics.cost) outcomes in
  let times = Array.map (fun (o : Metrics.outcome) -> o.Metrics.config_time) outcomes in
  { Metrics.trials;
    collisions;
    collision_rate = float_of_int collisions /. float_of_int trials;
    collision_ci = Stats.proportion_ci ~successes:collisions trials;
    cost = reference_summarize costs;
    cost_ci = reference_mean_ci costs;
    config_time = reference_summarize times;
    mean_probes =
      Numerics.Safe_float.mean
        (Array.map (fun (o : Metrics.outcome) -> float_of_int o.Metrics.probes_sent) outcomes);
    mean_restarts =
      Numerics.Safe_float.mean
        (Array.map (fun (o : Metrics.outcome) -> float_of_int o.Metrics.restarts) outcomes) }

(* ---------------- two-sample tests ---------------- *)

let alpha = 0.001
let z_crit = Oracle.normal_quantile (1. -. (alpha /. 2.))

let count p xs = Array.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 xs

(* pooled two-proportion z statistic *)
let proportion_z ~x1 ~n1 ~x2 ~n2 =
  let p1 = float_of_int x1 /. float_of_int n1
  and p2 = float_of_int x2 /. float_of_int n2 in
  let p = float_of_int (x1 + x2) /. float_of_int (n1 + n2) in
  let se =
    Float.sqrt (p *. (1. -. p) *. ((1. /. float_of_int n1) +. (1. /. float_of_int n2)))
  in
  if se = 0. then 0. else (p1 -. p2) /. se

(* Welch z statistic for a difference in means *)
let mean_z a b =
  let sa = Stats.summarize a and sb = Stats.summarize b in
  let se =
    Float.sqrt
      ((sa.Stats.variance /. float_of_int sa.Stats.n)
      +. (sb.Stats.variance /. float_of_int sb.Stats.n))
  in
  if se = 0. then 0. else (sa.Stats.mean -. sb.Stats.mean) /. se

(* Chi-square homogeneity test of two integer samples.  Categories are
   taken in ascending order and merged until each bin holds at least 10
   pooled observations (a short tail joins the last full bin).  Returns
   (statistic, degrees of freedom). *)
let chi_square a b =
  let hi = Array.fold_left max (Array.fold_left max 0 a) b in
  let tally xs =
    let c = Array.make (hi + 1) 0 in
    Array.iter (fun x -> c.(x) <- c.(x) + 1) xs;
    c
  in
  let ca = tally a and cb = tally b in
  let bins = ref [] and acc_a = ref 0 and acc_b = ref 0 in
  for v = 0 to hi do
    acc_a := !acc_a + ca.(v);
    acc_b := !acc_b + cb.(v);
    if !acc_a + !acc_b >= 10 then begin
      bins := (!acc_a, !acc_b) :: !bins;
      acc_a := 0;
      acc_b := 0
    end
  done;
  let bins =
    match !bins with
    | (xa, xb) :: rest when !acc_a + !acc_b > 0 ->
        (xa + !acc_a, xb + !acc_b) :: rest
    | bins -> bins
  in
  let na = float_of_int (Array.length a) and nb = float_of_int (Array.length b) in
  let total = na +. nb in
  let stat =
    List.fold_left
      (fun s (xa, xb) ->
        let col = float_of_int (xa + xb) in
        let ea = na *. col /. total and eb = nb *. col /. total in
        let term o e = ((float_of_int o -. e) ** 2.) /. e in
        s +. term xa ea +. term xb eb)
      0. bins
  in
  (stat, List.length bins - 1)

(* upper-alpha quantile of chi-square(df), Wilson-Hilferty *)
let chi_square_crit df =
  let k = float_of_int df in
  let z = Oracle.normal_quantile (1. -. alpha) in
  let h = 2. /. (9. *. k) in
  k *. ((1. -. h +. (z *. Float.sqrt h)) ** 3.)

(* Two float samples as integer categories for [chi_square]: each value
   becomes its rank among the distinct values of both *)
let ranks a b =
  let rank = Hashtbl.create 64 in
  List.iteri
    (fun i x -> Hashtbl.replace rank x i)
    (List.sort_uniq Float.compare (Array.to_list (Array.append a b)));
  (Array.map (Hashtbl.find rank) a, Array.map (Hashtbl.find rank) b)

(* ---------------- eager vs lazy ---------------- *)

let delay = Dist.Families.shifted_exponential ~mass:0.6 ~rate:2. ~delay:0.5 ()
let trials = 40_000

let drm = Newcomer.drm_config ~n:2 ~r:0.8 ~probe_cost:1. ~error_cost:100.

(* the draft's behaviour: immediate abort, blacklisting of failed
   addresses, rate limit after a few conflicts *)
let draft =
  { drm with
    Newcomer.immediate_abort = true;
    avoid_failed = true;
    rate_limit = Some (3, 5.) }

let compare_samplers ~pool_size ~occupied ~config ~seed () =
  let lazy_ =
    Scenario.run_aggregate ~delay ~occupied ~pool_size ~config ~trials
      ~rng:(Rng.create seed) ()
  and eager =
    eager_run ~delay ~occupied ~pool_size ~config ~trials
      ~rng:(Rng.create (seed + 1_000_003))
  in
  let x1 = lazy_.Metrics.collisions
  and x2 = count (fun (o : Metrics.outcome) -> o.Metrics.collided) eager in
  let z = proportion_z ~x1 ~n1:trials ~x2 ~n2:trials in
  Alcotest.(check bool)
    (Printf.sprintf "collision rate %d vs %d of %d: |z| = %.2f < %.2f" x1 x2
       trials (Float.abs z) z_crit)
    true
    (Float.abs z < z_crit);
  (* collisions must be common, or the comparison says nothing *)
  Alcotest.(check bool) "collisions are common" true (x2 > trials / 100);
  let eager_costs = Array.map (fun (o : Metrics.outcome) -> o.Metrics.cost) eager in
  let stat, df =
    let a, b = ranks lazy_.Metrics.cost eager_costs in
    chi_square a b
  in
  let crit = chi_square_crit df in
  Alcotest.(check bool)
    (Printf.sprintf "per-trial cost chi2 = %.2f < %.2f (df %d)" stat crit df)
    true
    (df >= 2 && stat < crit);
  let z = mean_z lazy_.Metrics.cost eager_costs in
  Alcotest.(check bool)
    (Printf.sprintf "mean cost: |z| = %.2f < %.2f" (Float.abs z) z_crit)
    true
    (Float.abs z < z_crit)

(* ---------------- lean loop vs reference ---------------- *)

let paper = Newcomer.drm_config ~n:3 ~r:1. ~probe_cost:1. ~error_cost:100.

let semantics =
  [ ("paper", paper);
    ("immediate_abort", { paper with Newcomer.immediate_abort = true });
    ("avoid_failed", { paper with Newcomer.avoid_failed = true });
    ("rate_limit", { paper with Newcomer.rate_limit = Some (2, 5.) }) ]

(* (label, reply law, pool size, occupied): every preset's law at its
   own occupancy, and the test law on crowded 256-address pools *)
let settings =
  List.map
    (fun (name, (p : Zeroconf.Params.t)) ->
      (name, p.Zeroconf.Params.delay, Pool.default_size, 1000))
    Zeroconf.Params.presets
  @ [ ("256 pool, 60 hosts", delay, 256, 60);
      ("256 pool, 200 hosts", delay, 256, 200) ]

let reference_run ~delay ~pool_size ~occupied ~config ~trials ~seed =
  let rng = Rng.create seed in
  Array.init trials (fun _ ->
      reference_trial ~delay ~size:pool_size ~occupied ~rng ~config)

let lean_run ~delay ~pool_size ~occupied ~config ~trials ~seed =
  Scenario.run_aggregate ~delay ~occupied ~pool_size ~config ~trials
    ~rng:(Rng.create seed) ()

(* every trial's cost and time bits, and the run's totals *)
let test_lean_equals_reference (label, delay, pool_size, occupied) () =
  List.iter
    (fun (sem, config) ->
      List.iter
        (fun seed ->
          let reference =
            reference_run ~delay ~pool_size ~occupied ~config ~trials:2_000 ~seed
          and lean = lean_run ~delay ~pool_size ~occupied ~config ~trials:2_000 ~seed in
          Option.iter
            (Alcotest.failf "%s, %s, seed %d: %s differs from the reference"
               label sem seed)
            (Oracle.sample_mismatch lean reference))
        [ 1; 2; 3 ])
    semantics

let summary_bits (s : Stats.summary) =
  ( s.Stats.n,
    List.map Int64.bits_of_float
      [ s.Stats.mean; s.Stats.variance; s.Stats.std; s.Stats.min; s.Stats.max ] )

let pair_bits (lo, hi) = (Int64.bits_of_float lo, Int64.bits_of_float hi)

let interval_bits (i : Metrics.interval) =
  List.map Int64.bits_of_float [ i.Metrics.mean; i.Metrics.ci_lo; i.Metrics.ci_hi ]

(* [Metrics.aggregate] and the three interval functions on a sample
   against the reference aggregate over its trials as records *)
let check_metrics what sample trials =
  let old = reference_aggregate trials and now = Metrics.aggregate sample in
  let same field a b = if a <> b then Alcotest.failf "%s: %s differs" what field in
  same "trials" old.Metrics.trials now.Metrics.trials;
  same "collisions" old.Metrics.collisions now.Metrics.collisions;
  same "collision_rate"
    (Int64.bits_of_float old.Metrics.collision_rate)
    (Int64.bits_of_float now.Metrics.collision_rate);
  same "collision_ci" (pair_bits old.Metrics.collision_ci)
    (pair_bits now.Metrics.collision_ci);
  same "cost" (summary_bits old.Metrics.cost) (summary_bits now.Metrics.cost);
  same "cost_ci" (pair_bits old.Metrics.cost_ci) (pair_bits now.Metrics.cost_ci);
  same "config_time" (summary_bits old.Metrics.config_time)
    (summary_bits now.Metrics.config_time);
  same "mean_probes"
    (Int64.bits_of_float old.Metrics.mean_probes)
    (Int64.bits_of_float now.Metrics.mean_probes);
  same "mean_restarts"
    (Int64.bits_of_float old.Metrics.mean_restarts)
    (Int64.bits_of_float now.Metrics.mean_restarts);
  let interval mean ci = interval_bits { Metrics.mean; ci_lo = fst ci; ci_hi = snd ci } in
  same "cost_interval"
    (interval old.Metrics.cost.Stats.mean old.Metrics.cost_ci)
    (interval_bits (Metrics.cost_interval sample));
  same "collision_interval"
    (interval old.Metrics.collision_rate old.Metrics.collision_ci)
    (interval_bits (Metrics.collision_interval sample));
  let times = Array.map (fun (o : Metrics.outcome) -> o.Metrics.config_time) trials in
  same "config_time_interval"
    (interval old.Metrics.config_time.Stats.mean (reference_mean_ci times))
    (interval_bits (Metrics.config_time_interval sample))

let test_metrics_equal_reference () =
  List.iter
    (fun ((label, delay, pool_size, occupied), (sem, config)) ->
      check_metrics (label ^ ", " ^ sem)
        (lean_run ~delay ~pool_size ~occupied ~config ~trials:2_000 ~seed:7)
        (reference_run ~delay ~pool_size ~occupied ~config ~trials:2_000 ~seed:7))
    (List.concat_map (fun s -> List.map (fun c -> (s, c)) semantics) settings)

(* The packet-level runner on a small crowded pool, beside one-trial
   runs on one generator, which draw the same stream: each one's trial
   as an outcome record (no run keeps the address) *)
let detailed ~loss ~occupied ~config ~trials ~seed =
  let one_way = Dist.Families.deterministic ~delay:0.05 () in
  let processing = Dist.Families.deterministic ~delay:0. () in
  let run ~trials rng =
    Scenario.run_detailed ~loss ~one_way ~processing ~occupied ~pool_size:16
      ~config ~trials ~rng ()
  in
  let sample = run ~trials (Rng.create seed) in
  let rng = Rng.create seed in
  let single _ =
    let s = run ~trials:1 rng in
    { Metrics.address = 0;
      collided = s.Metrics.collisions = 1;
      probes_sent = int_of_float s.Metrics.sums.(0);
      restarts = int_of_float s.Metrics.sums.(2);
      config_time = s.Metrics.config_time.(0);
      cost = s.Metrics.cost.(0) }
  in
  (sample, Array.init trials single)

(* every slot holds its one-trial run's cost and time, and the
   statistics equal the reference aggregate *)
let test_detailed_sample () =
  let config = Newcomer.drm_config ~n:2 ~r:0.2 ~probe_cost:1. ~error_cost:100. in
  let sample, singles = detailed ~loss:0.3 ~occupied:12 ~config ~trials:60 ~seed:21 in
  Option.iter
    (Alcotest.failf "run_detailed: %s differs from the one-trial runs")
    (Oracle.sample_mismatch sample singles);
  Alcotest.(check bool) "collisions and restarts both occur" true
    (Array.exists (fun (o : Metrics.outcome) -> o.Metrics.collided) singles
    && Array.exists (fun (o : Metrics.outcome) -> o.Metrics.restarts > 0) singles);
  check_metrics "run_detailed" sample singles

(* [Metrics.store] tallies as it stores: a detailed run's collision,
   probe and restart totals are the sums over its one-trial runs, on
   runs where each count is zero in some trials and large in others *)
let test_detailed_totals () =
  List.iter
    (fun (loss, occupied, config, seed) ->
      let sample, singles = detailed ~loss ~occupied ~config ~trials:40 ~seed in
      let total f = Array.fold_left (fun acc o -> acc + f o) 0 singles in
      let sum k = sample.Metrics.sums.(k) +. sample.Metrics.sums.(k + 1) in
      let what = Printf.sprintf "loss %g, %d hosts, seed %d" loss occupied seed in
      Alcotest.(check int) (what ^ ": collisions")
        (total (fun (o : Metrics.outcome) -> Bool.to_int o.Metrics.collided))
        sample.Metrics.collisions;
      Alcotest.(check (float 0.)) (what ^ ": probes")
        (float_of_int (total (fun (o : Metrics.outcome) -> o.Metrics.probes_sent)))
        (sum 0);
      Alcotest.(check (float 0.)) (what ^ ": restarts")
        (float_of_int (total (fun (o : Metrics.outcome) -> o.Metrics.restarts)))
        (sum 2))
    [ (0.3, 12, Newcomer.drm_config ~n:2 ~r:0.2 ~probe_cost:1. ~error_cost:100., 31);
      (0., 15, Newcomer.drm_config ~n:3 ~r:0.5 ~probe_cost:1. ~error_cost:100., 32);
      (0.9, 14, { paper with Newcomer.rate_limit = Some (1, 5.) }, 33) ]

(* ---------------- exact small pools ---------------- *)

let check_rate name ~trials ~expected successes =
  let p = float_of_int successes /. float_of_int trials in
  (* 4.5 binomial standard errors *)
  let tol = 4.5 *. Float.sqrt (expected *. (1. -. expected) /. float_of_int trials) in
  Alcotest.(check bool)
    (Printf.sprintf "%s = %.4f within %.4f of %.4f" name p tol expected)
    true
    (Float.abs (p -. expected) < tol)

let test_half_occupied_first_candidate () =
  (* pool {0, 1} with one host: the first candidate is occupied with
     probability exactly 1/2, and an occupied first candidate shows up
     as a restart or a collision, each of which costs more than the
     n (r + c) = 3.6 of a free first candidate *)
  let trials = 20_000 in
  let sample =
    Scenario.run_aggregate ~delay ~occupied:1 ~pool_size:2 ~config:drm ~trials
      ~rng:(Rng.create 11) ()
  in
  check_rate "P(first occupied)" ~trials ~expected:0.5
    (count (fun cost -> cost <> 3.6) sample.Metrics.cost)

(* One probe, answered half of the time: on pool {0, 1} with one host an
   attempt accepts the free address (1/2), collides on the occupied one
   (1/4) or restarts (1/4). *)
let coin_reply =
  Dist.Families.shifted_exponential ~mass:0.5 ~rate:infinity ~delay:0.1 ()
let one_probe = Newcomer.drm_config ~n:1 ~r:1. ~probe_cost:1. ~error_cost:100.

let test_revealed_answer_is_reused () =
  (* a redraw of the occupied address must find it occupied again, so
     the trial ends in a collision with probability (1/4) / (3/4) *)
  let trials = 30_000 in
  let sample =
    Scenario.run_aggregate ~delay:coin_reply ~occupied:1 ~pool_size:2
      ~config:one_probe ~trials ~rng:(Rng.create 12) ()
  in
  check_rate "collision rate" ~trials ~expected:(1. /. 3.) sample.Metrics.collisions

let test_avoid_failed_never_retries () =
  (* with blacklisting, a defended address is never drawn again: at most
     one restart, after which the free address is accepted.  An attempt
     costs r + c = 2 and a collision 100 more, so a trial costs 2 (free
     at once), 102 (collision at once) or 4 (one restart, then free);
     a second restart or a collision after one would cost more *)
  let trials = 30_000 in
  let sample =
    Scenario.run_aggregate ~delay:coin_reply ~occupied:1 ~pool_size:2
      ~config:{ one_probe with Newcomer.avoid_failed = true }
      ~trials ~rng:(Rng.create 13) ()
  in
  Array.iter
    (fun cost ->
      Alcotest.(check bool)
        (Printf.sprintf "cost %g in {2, 4, 102}" cost)
        true
        (cost = 2. || cost = 4. || cost = 102.))
    sample.Metrics.cost;
  Alcotest.(check (float 0.)) "one restart per trial that costs 4"
    (float_of_int (count (fun cost -> cost = 4.) sample.Metrics.cost))
    (sample.Metrics.sums.(2) +. sample.Metrics.sums.(3));
  check_rate "collision rate" ~trials ~expected:0.25 sample.Metrics.collisions

(* ---------------- input validation ---------------- *)

let run_invalid ~occupied ?pool_size () =
  ignore
    (Scenario.run_aggregate ~delay ~occupied ?pool_size ~config:drm ~trials:1
       ~rng:(Rng.create 0) ())

let test_rejects_negative_occupied () =
  Alcotest.check_raises "occupied < 0"
    (Invalid_argument "Scenario.run_aggregate: occupied outside [0, pool size)")
    (run_invalid ~occupied:(-1) ~pool_size:16)

let test_rejects_full_pool () =
  Alcotest.check_raises "occupied = pool_size"
    (Invalid_argument "Scenario.run_aggregate: occupied outside [0, pool size)")
    (run_invalid ~occupied:16 ~pool_size:16);
  Alcotest.check_raises "occupied = default size"
    (Invalid_argument "Scenario.run_aggregate: occupied outside [0, pool size)")
    (run_invalid ~occupied:Pool.default_size)

let test_rejects_empty_pool () =
  Alcotest.check_raises "pool_size = 0"
    (Invalid_argument "Scenario.run_aggregate: pool_size < 1")
    (run_invalid ~occupied:0 ~pool_size:0)

let () =
  let case pool_size occupied (label, config) seed =
    let name = Printf.sprintf "%d pool, %d occupied, %s" pool_size occupied label in
    Alcotest.test_case name `Quick
      (compare_samplers ~pool_size ~occupied ~config ~seed)
  in
  Alcotest.run "occupancy"
    [ ( "eager vs lazy",
        [ case 256 60 ("drm", drm) 1;
          case 256 200 ("drm", drm) 2;
          case 256 60 ("draft", draft) 3;
          case 256 200 ("draft", draft) 4;
          (* a tiny pool, where revealing one address visibly shifts the
             odds of the next *)
          case 4 2 ("drm", drm) 5;
          case 4 2 ("draft", draft) 6 ] );
      ( "lean loop",
        List.map
          (fun ((label, _, _, _) as setting) ->
            Alcotest.test_case ("= reference: " ^ label) `Quick
              (test_lean_equals_reference setting))
          settings
        @ [ Alcotest.test_case "metrics = reference aggregate" `Quick
              test_metrics_equal_reference;
            Alcotest.test_case "detailed sample = traced trials" `Quick
              test_detailed_sample;
            Alcotest.test_case "detailed totals = sums over outcomes" `Quick
              test_detailed_totals ] );
      ( "exact",
        [ Alcotest.test_case "first candidate half occupied" `Quick
            test_half_occupied_first_candidate;
          Alcotest.test_case "revealed answer reused" `Quick
            test_revealed_answer_is_reused;
          Alcotest.test_case "avoid_failed never retries" `Quick
            test_avoid_failed_never_retries ] );
      ( "validation",
        [ Alcotest.test_case "occupied < 0" `Quick test_rejects_negative_occupied;
          Alcotest.test_case "occupied >= pool size" `Quick test_rejects_full_pool;
          Alcotest.test_case "pool_size < 1" `Quick test_rejects_empty_pool ] ) ]
