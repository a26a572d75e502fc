module A = Zeroconf.Attempts
module Params = Zeroconf.Params

let check_rel ?(rtol = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.12g vs %.12g" msg expected actual)
    true
    (Oracle.approx_eq ~rtol expected actual)

(* a crowded scenario where the refinements actually bite *)
let crowded =
  Params.v ~name:"crowded"
    ~delay:(Dist.Families.shifted_exponential ~mass:0.9 ~rate:2. ~delay:0.5 ())
    ~q:0. (* ignored by Attempts *) ~probe_cost:1. ~error_cost:100.

let occupied = 200
let pool = 256

(* The refined model's rows for one scenario: baseline, blacklist only,
   rate limit only (10 conflicts, 60 s), both *)
let rows ?(occupied = occupied) ?(pool = pool) p ~n ~r =
  A.compare_refinements p ~occupied ~pool ~n ~r ()

let row label rows = List.assoc label rows

let test_baseline_reproduces_eq3_eq4 () =
  (* the headline consistency check: with no refinement the attempt
     decomposition is algebraically identical to the closed forms *)
  List.iter
    (fun (n, r) ->
      let a = row "baseline" (rows crowded ~n ~r) in
      let q = float_of_int occupied /. float_of_int pool in
      let p = Params.with_q crowded q in
      check_rel (Printf.sprintf "cost n=%d r=%g" n r) (Zeroconf.Cost.mean p ~n ~r)
        a.A.mean_cost;
      check_rel
        (Printf.sprintf "error n=%d r=%g" n r)
        (Zeroconf.Reliability.error_probability p ~n ~r)
        a.A.error_probability)
    [ (1, 0.6); (2, 1.); (3, 1.); (4, 2.); (6, 0.3) ]

let test_baseline_on_paper_scenario () =
  let a =
    row "baseline"
      (A.compare_refinements Params.figure2 ~occupied:1000
         ~pool:Params.address_space_size ~n:4 ~r:2. ())
  in
  check_rel "figure2 draft cost" (Zeroconf.Cost.mean Params.figure2 ~n:4 ~r:2.)
    a.A.mean_cost

let test_mean_attempts_geometric () =
  (* baseline attempts are geometric with restart prob q (1 - pi_n):
     mean = 1 / (1 - q (1 - pi_n)) *)
  let n = 3 and r = 1. in
  let a = row "baseline" (rows crowded ~n ~r) in
  let q = float_of_int occupied /. float_of_int pool in
  let pi_n =
    let k = Zeroconf.Kernel.create crowded ~r in
    Zeroconf.Kernel.advance_to k ~n;
    Zeroconf.Kernel.pi k
  in
  check_rel "geometric mean attempts" (1. /. (1. -. (q *. (1. -. pi_n))))
    a.A.mean_attempts

let test_blacklist_reduces_attempts_and_cost () =
  let rows = rows crowded ~n:3 ~r:1. in
  let a0 = row "baseline" rows and a1 = row "blacklist" rows in
  Alcotest.(check bool) "fewer attempts" true (a1.A.mean_attempts < a0.A.mean_attempts);
  Alcotest.(check bool) "cheaper" true (a1.A.mean_cost < a0.A.mean_cost);
  Alcotest.(check bool) "no less reliable" true
    (a1.A.error_probability <= a0.A.error_probability +. 1e-15)

let test_blacklist_terminates_on_tiny_pool () =
  (* 3 occupied out of 4: after three aborts the next draw is free for
     sure, so attempts are bounded by 4 *)
  let a = row "blacklist" (rows ~occupied:3 ~pool:4 crowded ~n:2 ~r:1.) in
  Alcotest.(check bool)
    (Printf.sprintf "attempts %.3f <= 4" a.A.mean_attempts)
    true
    (a.A.mean_attempts <= 4. +. 1e-9);
  Alcotest.(check (float 1e-12)) "no truncation" 0. a.A.truncated_mass

let test_rate_limit_adds_delay_only () =
  let rows = rows crowded ~n:3 ~r:1. in
  let a0 = row "baseline" rows and a1 = row "rate-limit" rows in
  check_rel "error probability unchanged" a0.A.error_probability
    a1.A.error_probability;
  check_rel "attempts unchanged" a0.A.mean_attempts a1.A.mean_attempts;
  Alcotest.(check bool) "time grows" true (a1.A.mean_time > a0.A.mean_time);
  (* the extra cost equals the extra time (1:1 time-to-cost) *)
  check_rel ~rtol:1e-9 "cost grows by the delay"
    (a1.A.mean_time -. a0.A.mean_time)
    (a1.A.mean_cost -. a0.A.mean_cost)

let test_rate_limit_threshold_accounting () =
  let rows = rows crowded ~n:2 ~r:0.5 in
  let a0 = row "baseline" rows and a = row "rate-limit" rows in
  (* without blacklisting, attempts are geometric with restart
     probability p = 1 - 1 / E[attempts]; attempt k + 1 follows k
     conflicts and happens with probability p^k, and it pays 60 s once
     k >= 10: extra = 60 sum_(k >= 10) p^k = 60 p^10 E[attempts] *)
  let m = a0.A.mean_attempts in
  let p = 1. -. (1. /. m) in
  check_rel ~rtol:1e-6 "delay accounting" (60. *. (p ** 10.) *. m)
    (a.A.mean_time -. a0.A.mean_time)

let test_matches_simulation () =
  (* end-to-end: all four refinement combinations against the aggregate
     simulator *)
  let delay = crowded.Params.delay in
  let n = 3 and r = 1. in
  let rng = Numerics.Rng.create 99 in
  List.iter
    (fun (label, avoid, rate_limit) ->
      let a = row label (rows crowded ~n ~r) in
      let config =
        { (Netsim.Newcomer.drm_config ~n ~r ~probe_cost:1. ~error_cost:100.) with
          Netsim.Newcomer.avoid_failed = avoid;
          Netsim.Newcomer.rate_limit }
      in
      let sample =
        Netsim.Scenario.run_aggregate ~delay ~occupied ~pool_size:pool ~config
          ~trials:15_000 ~rng ()
      in
      let agg = Netsim.Metrics.aggregate sample in
      let lo, hi = agg.Netsim.Metrics.cost_ci in
      Alcotest.(check bool)
        (Printf.sprintf "blacklist=%b rl=%b: CI [%g, %g] covers %g" avoid
           (rate_limit <> None) lo hi a.A.mean_cost)
        true
        (a.A.mean_cost > lo -. (0.03 *. a.A.mean_cost)
        && a.A.mean_cost < hi +. (0.03 *. a.A.mean_cost)))
    [ ("baseline", false, None); ("blacklist", true, None);
      ("rate-limit", false, Some (10, 60.)); ("draft (both)", true, Some (10, 60.)) ]

let test_compare_refinements_structure () =
  let rows = A.compare_refinements crowded ~occupied ~pool ~n:3 ~r:1. () in
  Alcotest.(check (list string)) "labels"
    [ "baseline"; "blacklist"; "rate-limit"; "draft (both)" ]
    (List.map fst rows)

let test_guards () =
  Alcotest.check_raises "occupied >= pool"
    (Invalid_argument "Attempts: occupied outside [0, pool)") (fun () ->
      ignore (A.no_refinement ~occupied:10 ~pool:10 ()));
  Alcotest.check_raises "n = 0" (Invalid_argument "Attempts.analyze: n < 1")
    (fun () -> ignore (rows ~occupied:10 ~pool:100 crowded ~n:0 ~r:1.))

(* an attempt cost n (r + c) + E that overflows is refused before any
   refinement runs: past it every mean cost is inf *)
let test_huge_probe_cost_refused () =
  let p = { Params.figure2 with Params.probe_cost = 1e308 } in
  Alcotest.check_raises "attempt cost overflows"
    (Invalid_argument
       "Attempts.analyze: the largest attempt cost n (r + c) + E = inf is not \
        finite") (fun () ->
      ignore
        (A.compare_refinements p ~occupied:1000 ~pool:Params.address_space_size
           ~n:4 ~r:2. ()))

let () =
  Alcotest.run "attempts"
    [ ( "baseline consistency",
        [ Alcotest.test_case "reproduces Eq. 3/4" `Quick
            test_baseline_reproduces_eq3_eq4;
          Alcotest.test_case "paper scenario" `Quick test_baseline_on_paper_scenario;
          Alcotest.test_case "geometric attempts" `Quick test_mean_attempts_geometric ] );
      ( "blacklisting",
        [ Alcotest.test_case "reduces attempts and cost" `Quick
            test_blacklist_reduces_attempts_and_cost;
          Alcotest.test_case "terminates on tiny pools" `Quick
            test_blacklist_terminates_on_tiny_pool ] );
      ( "rate limiting",
        [ Alcotest.test_case "adds delay only" `Quick test_rate_limit_adds_delay_only;
          Alcotest.test_case "threshold accounting" `Quick
            test_rate_limit_threshold_accounting ] );
      ( "validation",
        [ Alcotest.test_case "matches simulation (4 variants)" `Slow
            test_matches_simulation;
          Alcotest.test_case "comparison table" `Quick test_compare_refinements_structure;
          Alcotest.test_case "guards" `Quick test_guards;
          Alcotest.test_case "huge probe cost refused" `Quick
            test_huge_probe_cost_refused ] ) ]
