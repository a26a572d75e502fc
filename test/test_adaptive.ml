module A = Zeroconf.Adaptive
module Params = Zeroconf.Params

let check_rel ?(rtol = 1e-8) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.12g vs %.12g" msg expected actual)
    true
    (Oracle.approx_eq ~rtol expected actual)

let crowded =
  Params.v ~name:"crowded"
    ~delay:(Dist.Families.shifted_exponential ~mass:0.9 ~rate:2. ~delay:0.5 ())
    ~q:0. ~probe_cost:1. ~error_cost:100.

let occupied = 200
let pool = 256
let base = Zeroconf.Attempts.no_refinement ~occupied ~pool ()

let test_constant_q_policy_is_stationary () =
  (* the theorem: with memoryless occupancy every attempt stage looks
     alike, so the optimal adaptive schedule repeats one choice and its
     value equals the best fixed value *)
  let s = A.solve crowded ~refinement:base in
  check_rel "adaptive = fixed" s.A.fixed_cost s.A.expected_cost;
  let first = s.A.per_attempt.(0) in
  Array.iter
    (fun (c : A.choice) ->
      Alcotest.(check int) "same n everywhere" first.A.n c.A.n;
      check_rel "same r everywhere" first.A.r c.A.r)
    s.A.per_attempt

let test_constant_q_matches_eq3 () =
  (* the fixed value on the grid equals Eq. 3 at the chosen candidate *)
  let s = A.solve crowded ~refinement:base in
  let q = float_of_int occupied /. float_of_int pool in
  let p = Params.with_q crowded q in
  check_rel "Eq. 3 at fixed_best"
    (Zeroconf.Cost.mean p ~n:s.A.fixed_best.A.n ~r:s.A.fixed_best.A.r)
    s.A.fixed_cost

let test_adaptive_never_worse () =
  List.iter
    (fun refinement ->
      let s = A.solve crowded ~refinement in
      Alcotest.(check bool) "improvement >= 0" true (s.A.improvement >= 0.);
      Alcotest.(check bool) "adaptive <= fixed" true
        (s.A.expected_cost <= s.A.fixed_cost +. 1e-9))
    [ base;
      { base with Zeroconf.Attempts.blacklist = true };
      { base with Zeroconf.Attempts.rate_limit = Some (2, 30.) };
      { base with
        Zeroconf.Attempts.blacklist = true;
        Zeroconf.Attempts.rate_limit = Some (2, 30.) } ]

let test_rate_limit_makes_adaptivity_pay () =
  (* with a harsh rate limiter, switching strategy near the threshold
     beats any fixed choice by a real margin *)
  let refinement = { base with Zeroconf.Attempts.rate_limit = Some (2, 30.) } in
  let s = A.solve crowded ~refinement in
  Alcotest.(check bool)
    (Printf.sprintf "improvement %.3f substantial" s.A.improvement)
    true
    (s.A.improvement > 1.);
  (* and the schedule is genuinely non-stationary *)
  let first = s.A.per_attempt.(0) in
  Alcotest.(check bool) "policy changes across attempts" true
    (Array.exists (fun (c : A.choice) -> c <> first) s.A.per_attempt)

let test_blacklist_value_matches_attempts_analysis () =
  (* restricted to the fixed candidate it prefers, the MDP's fixed value
     must agree with the attempt-indexed closed-form analysis *)
  let refinement = { base with Zeroconf.Attempts.blacklist = true } in
  let s = A.solve crowded ~refinement in
  let analysis =
    List.assoc "blacklist"
      (Zeroconf.Attempts.compare_refinements crowded
         ~occupied:refinement.Zeroconf.Attempts.occupied
         ~pool:refinement.Zeroconf.Attempts.pool ~n:s.A.fixed_best.A.n
         ~r:s.A.fixed_best.A.r ())
  in
  check_rel ~rtol:1e-6 "MDP fixed value = Attempts blacklist row"
    analysis.Zeroconf.Attempts.mean_cost s.A.fixed_cost

let () =
  Alcotest.run "adaptive"
    [ ( "stationarity theorem",
        [ Alcotest.test_case "constant q is stationary" `Quick
            test_constant_q_policy_is_stationary;
          Alcotest.test_case "matches Eq. 3" `Quick test_constant_q_matches_eq3 ] );
      ( "dominance",
        [ Alcotest.test_case "never worse than fixed" `Quick test_adaptive_never_worse;
          Alcotest.test_case "rate limit rewards adaptivity" `Quick
            test_rate_limit_makes_adaptivity_pay;
          Alcotest.test_case "agrees with Attempts" `Quick
            test_blacklist_value_matches_attempts_analysis ] ) ]
