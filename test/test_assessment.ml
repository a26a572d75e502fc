module A = Zeroconf.Assessment
module Params = Zeroconf.Params

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let assessment = A.run Params.realistic_ethernet

let test_draft_point_values () =
  let d = assessment.A.draft in
  Alcotest.(check int) "n" 4 d.Zeroconf.Optimize.n;
  check_close "r" 2. d.Zeroconf.Optimize.r;
  check_close ~tol:1e-6 "cost is Eq. 3"
    (Zeroconf.Cost.mean Params.realistic_ethernet ~n:4 ~r:2.)
    d.Zeroconf.Optimize.cost;
  check_close ~tol:1e-60 "error is Eq. 4"
    (Zeroconf.Reliability.error_probability Params.realistic_ethernet ~n:4 ~r:2.)
    d.Zeroconf.Optimize.error_prob

let test_optimum_consistency () =
  let o = assessment.A.optimum in
  (* the assessment's optimum is the global optimum *)
  let g = Zeroconf.Optimize.global_optimum Params.realistic_ethernet in
  Alcotest.(check int) "same n" g.Zeroconf.Optimize.n o.Zeroconf.Optimize.n;
  check_close ~tol:1e-6 "same r" g.Zeroconf.Optimize.r o.Zeroconf.Optimize.r

let test_derived_quantities () =
  check_close ~tol:1e-9 "cost ratio"
    (assessment.A.draft.Zeroconf.Optimize.cost
    /. assessment.A.optimum.Zeroconf.Optimize.cost)
    assessment.A.cost_ratio;
  check_close "draft config time = n * r" 8. assessment.A.draft_config_time;
  check_close ~tol:1e-6 "optimal config time"
    (float_of_int assessment.A.optimum.Zeroconf.Optimize.n
    *. assessment.A.optimum.Zeroconf.Optimize.r)
    assessment.A.optimal_config_time;
  Alcotest.(check int) "nu recorded" 2 assessment.A.nu

let test_draft_never_beats_optimum () =
  List.iter
    (fun p ->
      let a = A.run p in
      Alcotest.(check bool)
        (p.Params.name ^ ": ratio >= 1")
        true
        (a.A.cost_ratio >= 1. -. 1e-9))
    [ Params.figure2; Params.wireless_worst_case; List.assoc "wired-worst-case" Params.presets;
      Params.realistic_ethernet ]

let test_custom_draft_point () =
  (* assessing the optimum against itself gives ratio 1 *)
  let o = assessment.A.optimum in
  let self =
    A.run ~draft_n:o.Zeroconf.Optimize.n ~draft_r:o.Zeroconf.Optimize.r
      Params.realistic_ethernet
  in
  Alcotest.(check bool) "ratio ~ 1" true (self.A.cost_ratio < 1.0001)

let test_wireless_draft_is_optimal () =
  (* Sec. 4.5's whole point: under the calibrated costs the draft's
     (4, 2) IS the optimum for the wireless worst case *)
  let a = A.run Params.wireless_worst_case in
  Alcotest.(check int) "optimal n = 4" 4 a.A.optimum.Zeroconf.Optimize.n;
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.4f ~ 1" a.A.cost_ratio)
    true
    (a.A.cost_ratio < 1.001)

let test_pp () =
  let s = Format.asprintf "%a" A.pp assessment in
  let contains needle =
    let nl = String.length needle and hl = String.length s in
    let rec scan i = i + nl <= hl && (String.sub s i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "mentions draft" true (contains "draft");
  Alcotest.(check bool) "mentions optimal" true (contains "optimal");
  Alcotest.(check bool) "mentions nu" true (contains "nu")

(* a probe cost whose attempt cost n (r + c) + E overflows at the draft
   point is refused as the mean-cost query there: the draft's cost and
   its ratio to the optimum would be inf *)
let test_huge_probe_cost_refused () =
  let p = { Params.figure2 with Params.probe_cost = 1e308 } in
  Alcotest.check_raises "refused as the draft's mean-cost query"
    (Invalid_argument
       "Query: mean-cost at n = 4, r = 2: the largest attempt cost n (r + c) \
        + E = inf is not finite") (fun () ->
      ignore (Engine.Report.assessment ~draft_n:4 ~draft_r:2. p : A.t))

let () =
  Alcotest.run "assessment"
    [ ( "values",
        [ Alcotest.test_case "draft point" `Quick test_draft_point_values;
          Alcotest.test_case "optimum" `Quick test_optimum_consistency;
          Alcotest.test_case "derived" `Quick test_derived_quantities ] );
      ( "structure",
        [ Alcotest.test_case "ratio >= 1" `Quick test_draft_never_beats_optimum;
          Alcotest.test_case "self comparison" `Quick test_custom_draft_point;
          Alcotest.test_case "Sec. 4.5 forward" `Quick test_wireless_draft_is_optimal;
          Alcotest.test_case "printer" `Quick test_pp;
          Alcotest.test_case "huge probe cost refused" `Quick
            test_huge_probe_cost_refused ] ) ]
