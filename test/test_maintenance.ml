module Mnt = Netsim.Maintenance

let one_way = Dist.Families.deterministic ~delay:0.02 ()

let config =
  Netsim.Newcomer.drm_config ~n:2 ~r:0.2 ~probe_cost:0. ~error_cost:0.

(* [trials] latent collisions played out from [seed] *)
let estimate ?background_rate ?(loss = 0.) ?(trials = 1) ~seed () =
  Mnt.estimate_error_cost ?background_rate ~loss ~one_way ~occupied:20
    ~pool_size:64 ~config ~trials ~rng:(Numerics.Rng.create seed) ()

let mean_disruption (est : Mnt.cost_estimate) =
  est.Mnt.disruption.Numerics.Stats.mean

let test_resolution_structure () =
  let est = estimate ~background_rate:1. ~seed:1 () in
  (* detection takes some time, then reconfiguration n r = 0.4 s at least *)
  Alcotest.(check bool) "disruption past reconfiguration" true
    (mean_disruption est > 0.4);
  Alcotest.(check bool) "connections non-negative" true (est.Mnt.mean_broken >= 0.)

let test_chattier_network_detects_faster () =
  (* average detection latency scales with 1/background_rate *)
  let fast = mean_disruption (estimate ~background_rate:10. ~trials:40 ~seed:7 ()) in
  let slow = mean_disruption (estimate ~background_rate:0.1 ~trials:40 ~seed:7 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "chatty %.2f s << quiet %.2f s" fast slow)
    true (fast *. 5. < slow)

let test_loss_delays_detection () =
  let mean loss =
    mean_disruption (estimate ~background_rate:1. ~loss ~trials:40 ~seed:8 ())
  in
  let clean = mean 0. in
  let lossy = mean 0.8 in
  Alcotest.(check bool)
    (Printf.sprintf "clean %.2f s < lossy %.2f s" clean lossy)
    true (clean < lossy)

let test_more_connections_on_slow_detection () =
  (* a quiet network leaves the collision latent for about 100 s, while
     the newcomer opens a connection every 20 s *)
  let est = estimate ~background_rate:0.01 ~seed:3 () in
  Alcotest.(check bool)
    (Printf.sprintf "%g connections opened during %g s of outage"
       est.Mnt.mean_broken (mean_disruption est))
    true
    (est.Mnt.mean_broken > 0.)

let test_estimate_error_cost () =
  let rng = Numerics.Rng.create 9 in
  let est =
    Mnt.estimate_error_cost ~background_rate:1. ~loss:0.
      ~one_way ~occupied:20 ~pool_size:64 ~config ~trials:20 ~rng ()
  in
  Alcotest.(check int) "trials recorded" 20 est.Mnt.trials;
  Alcotest.(check bool) "suggested E consistent" true
    (Oracle.approx_eq ~rtol:1e-9
       (est.Mnt.disruption.Numerics.Stats.mean +. (30. *. est.Mnt.mean_broken))
       est.Mnt.suggested_error_cost);
  Alcotest.(check bool) "E positive" true (est.Mnt.suggested_error_cost > 0.)

let test_guards () =
  Alcotest.check_raises "bad background rate"
    (Invalid_argument "Maintenance.simulate_collision: background_rate <= 0")
    (fun () -> ignore (estimate ~background_rate:0. ~seed:1 ()));
  let rng = Numerics.Rng.create 1 in
  Alcotest.check_raises "bad trials"
    (Invalid_argument "Maintenance.estimate_error_cost: trials < 1") (fun () ->
      ignore
        (Mnt.estimate_error_cost ~loss:0. ~one_way ~occupied:20 ~pool_size:64
           ~config ~trials:0 ~rng ()))

(* without loss the reconfiguring collider needs a free address: the
   incumbent takes the last of 16, so 15 occupied are refused at once *)
let test_no_free_address () =
  Alcotest.check_raises "15 occupied of 16"
    (Invalid_argument "Maintenance.simulate_collision: no free address to reconfigure to")
    (fun () ->
      ignore
        (Mnt.estimate_error_cost ~loss:0. ~one_way ~occupied:15 ~pool_size:16
           ~config ~trials:1 ~rng:(Numerics.Rng.create 1) ()));
  (* 14 occupied leave it one *)
  ignore
    (Mnt.estimate_error_cost ~background_rate:1. ~loss:0. ~one_way ~occupied:14
       ~pool_size:16 ~config ~trials:1 ~rng:(Numerics.Rng.create 1) ())

let () =
  Alcotest.run "maintenance"
    [ ( "resolution",
        [ Alcotest.test_case "structure" `Quick test_resolution_structure;
          Alcotest.test_case "chatty detects faster" `Quick
            test_chattier_network_detects_faster;
          Alcotest.test_case "loss delays detection" `Quick test_loss_delays_detection;
          Alcotest.test_case "connections accumulate" `Quick
            test_more_connections_on_slow_detection ] );
      ( "cost estimate",
        [ Alcotest.test_case "aggregation" `Quick test_estimate_error_cost;
          Alcotest.test_case "guards" `Quick test_guards;
          Alcotest.test_case "no free address refused" `Quick test_no_free_address
        ] ) ]
