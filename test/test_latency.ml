module L = Zeroconf.Latency
module Params = Zeroconf.Params

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let check_rel ?(rtol = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.12g vs %.12g" msg expected actual)
    true
    (Oracle.approx_eq ~rtol expected actual)

let fig2 = Params.figure2

let test_free_network_is_deterministic () =
  (* q = 0: exactly n periods, always *)
  let p = Params.with_q fig2 0. in
  let d = L.periods p ~n:4 ~r:2. in
  check_close "pmf at 4 periods" 1. d.L.pmf.(4);
  check_close "mean 8 s" 8. (L.mean d);
  check_close "median 8 s" 8. (L.quantile d 0.5);
  check_close "no tail" 0. d.L.tail

let test_pmf_sums_to_one () =
  List.iter
    (fun (n, r, q) ->
      let p = Params.with_q fig2 q in
      let d = L.periods p ~n ~r in
      check_rel
        (Printf.sprintf "n=%d r=%g q=%g" n r q)
        1.
        (Numerics.Safe_float.sum d.L.pmf +. d.L.tail))
    [ (4, 2., 0.0154); (2, 1., 0.3); (3, 0.5, 0.7); (1, 2., 0.9) ]

let test_support_structure () =
  (* outcomes happen at n (clean success), or k + further periods after
     aborts: nothing below n periods is possible *)
  let p = Params.with_q fig2 0.3 in
  let n = 3 in
  let d = L.periods p ~n ~r:1.5 in
  for k = 0 to n - 1 do
    check_close (Printf.sprintf "nothing at %d periods" k) 0. d.L.pmf.(k)
  done;
  Alcotest.(check bool) "mass at n" true (d.L.pmf.(n) > 0.)

let test_mean_matches_drm_time_rewards () =
  (* independent route: a DRM whose transition rewards are the period
     durations (in seconds) must give the same expectation *)
  let p = Params.with_q fig2 0.3 in
  let n = 3 and r = 1.5 in
  let d = L.periods p ~n ~r in
  (* build the timed DRM: reuse Drm but with c = 0 and E = 0 so the cost
     IS (r + 0) per period, i.e. time *)
  let timed = Params.with_costs ~probe_cost:0. ~error_cost:0. p in
  let drm = Zeroconf.Drm.build timed ~n ~r in
  check_rel ~rtol:1e-9 "mean time via DRM rewards" (Zeroconf.Drm.mean_cost drm)
    (L.mean d)

let test_mean_matches_simulation () =
  let p =
    Params.v ~name:"sim"
      ~delay:(Dist.Families.shifted_exponential ~mass:0.9 ~rate:2. ~delay:0.5 ())
      ~q:0.25 ~probe_cost:1. ~error_cost:100.
  in
  let n = 3 and r = 1. in
  let d = L.periods p ~n ~r in
  let rng = Numerics.Rng.create 5 in
  let sample =
    Netsim.Scenario.run_aggregate ~delay:p.Params.delay ~occupied:256
      ~pool_size:1024
      ~config:(Netsim.Newcomer.drm_config ~n ~r ~probe_cost:1. ~error_cost:100.)
      ~trials:30_000 ~rng ()
  in
  let agg = Netsim.Metrics.aggregate sample in
  let sim_mean = agg.Netsim.Metrics.config_time.Numerics.Stats.mean in
  Alcotest.(check bool)
    (Printf.sprintf "analytic %.4f ~ simulated %.4f" (L.mean d) sim_mean)
    true
    (Float.abs (L.mean d -. sim_mean) < 0.05)

let test_cdf_monotone_and_bounded () =
  let p = Params.with_q fig2 0.5 in
  let d = L.periods p ~n:4 ~r:2. in
  let prev = ref (-1.) in
  List.iter
    (fun t ->
      let v = L.cdf d t in
      Alcotest.(check bool) "monotone" true (v >= !prev);
      Alcotest.(check bool) "bounded" true (Numerics.Safe_float.is_probability v);
      prev := v)
    [ 0.; 4.; 8.; 8.1; 10.; 16.; 100. ]

let test_quantile_inverts_cdf () =
  let p = Params.with_q fig2 0.5 in
  let d = L.periods p ~n:4 ~r:2. in
  List.iter
    (fun q ->
      let t = L.quantile d q in
      Alcotest.(check bool)
        (Printf.sprintf "cdf (quantile %g) >= %g" q q)
        true
        (L.cdf d t >= q -. 1e-12))
    [ 0.1; 0.5; 0.9; 0.99; 0.9999 ]

let test_exceeds_draft_threshold () =
  (* the draft point on figure2: P(wait > n r) = chance of any restart,
     which is q x P(reply heard in time) *)
  let d = L.periods fig2 ~n:4 ~r:2. in
  let p_restart = L.exceeds d 8. in
  (* q (1 - pi_n) up to re-restarts, which are O(q^2) *)
  let q = fig2.Params.q in
  let pi_n =
    let k = Zeroconf.Kernel.create fig2 ~r:2. in
    Zeroconf.Kernel.advance_to k ~n:4;
    Zeroconf.Kernel.pi k
  in
  Alcotest.(check bool)
    (Printf.sprintf "P(>8s) = %.4g ~ q(1 - pi_4) = %.4g" p_restart
       (q *. (1. -. pi_n)))
    true
    (Float.abs (p_restart -. (q *. (1. -. pi_n))) < 1e-3 *. q)

(* a hopeless scenario (q = 0.9999, replies certain): an attempt
   succeeds with probability 1e-4, so about 0.9999^4096 = 0.66 of the
   mass lies past the horizon *)
let hopeless =
  Params.v ~name:"hopeless"
    ~delay:(Dist.Families.deterministic ~delay:0.1 ())
    ~q:0.9999 ~probe_cost:0. ~error_cost:0.

let test_horizon_tail_reported () =
  (* mass past the horizon goes into the tail rather than being lost *)
  let d = L.periods hopeless ~n:2 ~r:1. in
  Alcotest.(check bool) "tail mass present" true (d.L.tail > 0.01);
  check_rel "mass conservation" 1. (Numerics.Safe_float.sum d.L.pmf +. d.L.tail)

let test_quantile_beyond_mass_rejected () =
  let d = L.periods hopeless ~n:2 ~r:1. in
  try
    ignore (L.quantile d 0.9999);
    Alcotest.fail "accepted a quantile beyond the captured mass"
  with Invalid_argument _ -> ()

let test_guards () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Latency.periods: n < 1")
    (fun () -> ignore (L.periods fig2 ~n:0 ~r:1.));
  Alcotest.check_raises "horizon below n"
    (Invalid_argument "Latency.periods: horizon below n") (fun () ->
      ignore (L.periods fig2 ~n:(L.default_horizon + 1) ~r:1.))

let () =
  Alcotest.run "latency"
    [ ( "exact cases",
        [ Alcotest.test_case "free network" `Quick test_free_network_is_deterministic;
          Alcotest.test_case "mass conservation" `Quick test_pmf_sums_to_one;
          Alcotest.test_case "support" `Quick test_support_structure ] );
      ( "cross-checks",
        [ Alcotest.test_case "mean vs DRM rewards" `Quick
            test_mean_matches_drm_time_rewards;
          Alcotest.test_case "mean vs simulation" `Quick test_mean_matches_simulation;
          Alcotest.test_case "draft tail anchor" `Quick test_exceeds_draft_threshold ] );
      ( "cdf/quantile",
        [ Alcotest.test_case "cdf monotone" `Quick test_cdf_monotone_and_bounded;
          Alcotest.test_case "quantile inverts" `Quick test_quantile_inverts_cdf;
          Alcotest.test_case "tail reported" `Quick test_horizon_tail_reported;
          Alcotest.test_case "quantile beyond mass" `Quick
            test_quantile_beyond_mass_rejected;
          Alcotest.test_case "guards" `Quick test_guards ] ) ]
