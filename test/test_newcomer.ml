(* The protocol state machine, validated against the analytic model.

   The aggregate runner samples reply delays straight from F_X with the
   DRM's period-boundary semantics, so its collision rate and mean cost
   must match Eqs. 3 and 4 within Monte-Carlo error. *)

module Params = Zeroconf.Params
module Scenario = Netsim.Scenario
module Newcomer = Netsim.Newcomer
module Metrics = Netsim.Metrics

let mc_scenario =
  Params.v ~name:"mc"
    ~delay:(Dist.Families.shifted_exponential ~mass:0.9 ~rate:2. ~delay:0.5 ())
    ~q:0.25 ~probe_cost:1. ~error_cost:100.

let pool_size = 1024
let occupied = 256 (* q = 0.25 exactly *)

let config ~n ~r =
  Newcomer.drm_config ~n ~r ~probe_cost:mc_scenario.Params.probe_cost
    ~error_cost:mc_scenario.Params.error_cost

let run_aggregate ~n ~r ~trials ~seed =
  Scenario.run_aggregate ~delay:mc_scenario.Params.delay ~occupied ~pool_size
    ~config:(config ~n ~r) ~trials ~rng:(Numerics.Rng.create seed) ()

let test_aggregate_cost_matches_eq3 () =
  List.iter
    (fun (n, r) ->
      let sample = run_aggregate ~n ~r ~trials:30_000 ~seed:1 in
      let agg = Metrics.aggregate sample in
      let lo, hi = agg.Metrics.cost_ci in
      let truth = Zeroconf.Cost.mean mc_scenario ~n ~r in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d r=%g: CI [%g, %g] covers C = %g" n r lo hi truth)
        true
        (* allow a hair of slack beyond the 95% interval *)
        (truth > lo -. (0.02 *. truth) && truth < hi +. (0.02 *. truth)))
    [ (1, 0.8); (3, 0.7); (4, 1.2) ]

let test_aggregate_collision_matches_eq4 () =
  let n = 2 and r = 0.8 in
  let sample = run_aggregate ~n ~r ~trials:60_000 ~seed:2 in
  let agg = Metrics.aggregate sample in
  let lo, hi = agg.Metrics.collision_ci in
  let truth = Zeroconf.Reliability.error_probability mc_scenario ~n ~r in
  Alcotest.(check bool)
    (Printf.sprintf "CI [%g, %g] covers E = %g" lo hi truth)
    true
    (truth > lo -. 0.002 && truth < hi +. 0.002)

let test_aggregate_config_time_free_network () =
  (* nobody connected: config time is exactly n * r, cost n (r + c) *)
  let n = 4 and r = 0.5 in
  let sample =
    Scenario.run_aggregate ~delay:mc_scenario.Params.delay ~occupied:0 ~pool_size
      ~config:(config ~n ~r) ~trials:50 ~rng:(Numerics.Rng.create 3) ()
  in
  Array.iter (Alcotest.(check (float 1e-12)) "time" 2.) sample.Metrics.config_time;
  Array.iter (Alcotest.(check (float 1e-12)) "cost" 6.) sample.Metrics.cost;
  let agg = Metrics.aggregate sample in
  Alcotest.(check (float 0.)) "probes" 4. agg.Metrics.mean_probes;
  Alcotest.(check int) "no collision" 0 agg.Metrics.collisions

let test_aggregate_immediate_abort_never_slower () =
  (* immediate abort can only shorten configuration time *)
  let n = 3 and r = 1. in
  let drm_cfg = config ~n ~r in
  let fast_cfg = { drm_cfg with Newcomer.immediate_abort = true } in
  let run cfg seed =
    let sample =
      Scenario.run_aggregate ~delay:mc_scenario.Params.delay ~occupied ~pool_size
        ~config:cfg ~trials:20_000 ~rng:(Numerics.Rng.create seed) ()
    in
    (Metrics.aggregate sample).Metrics.config_time.Numerics.Stats.mean
  in
  let slow = run drm_cfg 4 and fast = run fast_cfg 4 in
  Alcotest.(check bool)
    (Printf.sprintf "immediate %.4f <= boundary %.4f" fast slow)
    true (fast <= slow)

(* ---------------- detailed (packet-level) runner ---------------- *)

let one_way = Dist.Families.deterministic ~delay:0.05 ()

(* responders that reply as soon as a probe reaches them *)
let processing = Dist.Families.deterministic ~delay:0. ()

let test_detailed_free_network () =
  let sample =
    Scenario.run_detailed ~loss:0. ~one_way ~processing ~occupied:0 ~pool_size:64
      ~config:(config ~n:3 ~r:0.5) ~trials:20 ~rng:(Numerics.Rng.create 5) ()
  in
  let agg = Metrics.aggregate sample in
  Alcotest.(check int) "clean" 0 agg.Metrics.collisions;
  Alcotest.(check (float 0.)) "3 probes" 3. agg.Metrics.mean_probes;
  Alcotest.(check (float 0.)) "no restarts" 0. agg.Metrics.mean_restarts

let test_detailed_certain_conflict_with_perfect_link () =
  (* one free address in a pool of 2, perfect link: the newcomer may hit
     the occupied address but can never accept it *)
  let sample =
    Scenario.run_detailed ~loss:0. ~one_way ~processing ~occupied:1 ~pool_size:2
      ~config:(config ~n:2 ~r:0.5) ~trials:50 ~rng:(Numerics.Rng.create 6) ()
  in
  Alcotest.(check int) "never collides on a perfect link" 0
    sample.Metrics.collisions

let test_detailed_total_loss_always_collides () =
  (* loss = 1: replies never arrive, so picking an occupied address is
     always accepted erroneously.  With 63/64 occupied that's almost
     every trial. *)
  let sample =
    Scenario.run_detailed ~loss:1. ~one_way ~processing ~occupied:63 ~pool_size:64
      ~config:(config ~n:2 ~r:0.2) ~trials:200 ~rng:(Numerics.Rng.create 7) ()
  in
  let agg = Metrics.aggregate sample in
  Alcotest.(check bool)
    (Printf.sprintf "collision rate %.3f near 63/64" agg.Metrics.collision_rate)
    true
    (Float.abs (agg.Metrics.collision_rate -. (63. /. 64.)) < 0.05);
  (* and nobody ever restarts: no reply can be heard *)
  Alcotest.(check (float 1e-9)) "no restarts" 0. agg.Metrics.mean_restarts

let test_detailed_matches_aggregate_and_eq3 () =
  (* end-to-end fidelity: legs of deterministic 0.25 s + exponential
     processing at rate 2, each leg losing 1 - sqrt(0.9), compose to the
     mc_scenario F_X (delay 0.5, rate 2, mass 0.9) *)
  let leg_loss = 1. -. sqrt 0.9 in
  let n = 3 and r = 1. in
  let sample =
    Scenario.run_detailed ~loss:leg_loss
      ~one_way:(Dist.Families.deterministic ~delay:0.25 ())
      ~processing:(Dist.Families.exponential ~rate:2. ())
      ~occupied ~pool_size ~config:(config ~n ~r) ~trials:3_000
      ~rng:(Numerics.Rng.create 8) ()
  in
  let agg = Metrics.aggregate sample in
  let lo, hi = agg.Metrics.cost_ci in
  let truth = Zeroconf.Cost.mean mc_scenario ~n ~r in
  Alcotest.(check bool)
    (Printf.sprintf "packet-level CI [%g, %g] covers Eq. 3 = %g" lo hi truth)
    true
    (truth > lo -. (0.05 *. truth) && truth < hi +. (0.05 *. truth))

let test_rate_limit_slows_retries () =
  (* with rate limiting after 1 conflict and a crowded pool, restarts
     incur the 60 s penalty, which shows up in config time *)
  let cfg =
    { (config ~n:2 ~r:0.2) with Newcomer.rate_limit = Some (1, 60.) }
  in
  let sample =
    Scenario.run_detailed ~loss:0. ~one_way ~processing ~occupied:60 ~pool_size:64
      ~config:cfg ~trials:100 ~rng:(Numerics.Rng.create 9) ()
  in
  let slow =
    Array.exists (fun time -> time > 59.) sample.Metrics.config_time
  in
  Alcotest.(check bool) "some trial hit the rate limiter" true slow

let test_config_validation () =
  let engine = Netsim.Engine.create () in
  let rng = Numerics.Rng.create 11 in
  let link = Netsim.Link.create ~engine ~rng ~loss:0. ~one_way in
  let pool = Netsim.Address_pool.create ~size:8 () in
  let bad = { (config ~n:1 ~r:1.) with Newcomer.probes = 0 } in
  Alcotest.check_raises "probes < 1" (Invalid_argument "Newcomer: probes < 1")
    (fun () ->
      ignore (Newcomer.start ~engine ~link ~pool ~rng ~config:bad ~on_done:ignore ()))

let () =
  Alcotest.run "newcomer"
    [ ( "aggregate vs model",
        [ Alcotest.test_case "cost matches Eq. 3" `Quick
            test_aggregate_cost_matches_eq3;
          Alcotest.test_case "collision matches Eq. 4" `Quick
            test_aggregate_collision_matches_eq4;
          Alcotest.test_case "free network exact" `Quick
            test_aggregate_config_time_free_network;
          Alcotest.test_case "immediate abort faster" `Quick
            test_aggregate_immediate_abort_never_slower ] );
      ( "packet level",
        [ Alcotest.test_case "free network" `Quick test_detailed_free_network;
          Alcotest.test_case "perfect link never collides" `Quick
            test_detailed_certain_conflict_with_perfect_link;
          Alcotest.test_case "total loss always collides" `Quick
            test_detailed_total_loss_always_collides;
          Alcotest.test_case "matches Eq. 3 end-to-end" `Quick
            test_detailed_matches_aggregate_and_eq3;
          Alcotest.test_case "rate limiting" `Quick test_rate_limit_slows_retries;
          Alcotest.test_case "validation" `Quick test_config_validation ] ) ]
