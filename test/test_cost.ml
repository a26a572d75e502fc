module Cost = Zeroconf.Cost
module Params = Zeroconf.Params

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let check_rel msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.12g vs %.12g" msg expected actual)
    true
    (Oracle.approx_eq ~rtol:1e-9 expected actual)

let fig2 = Params.figure2

let test_at_zero_is_qE () =
  (* Sec. 4.2: C_n(0) = qE for every n *)
  let qe = fig2.Params.q *. fig2.Params.error_cost in
  List.iter
    (fun n -> check_rel (Printf.sprintf "C_%d(0)" n) qe (Cost.mean fig2 ~n ~r:0.))
    [ 1; 2; 3; 5; 8 ]

let test_figure2_draft_value () =
  (* regression pin: C(4, 2) on the figure2 scenario *)
  check_close ~tol:1e-4 "C(4, 2)" 16.0625 (Cost.mean fig2 ~n:4 ~r:2.)

let test_free_network_costs_n_probes () =
  (* with q = 0 there is never a collision: cost is exactly n (r + c) *)
  let p = Params.with_q fig2 0. in
  List.iter
    (fun (n, r) ->
      check_rel
        (Printf.sprintf "n=%d r=%g" n r)
        (float_of_int n *. (r +. p.Params.probe_cost))
        (Cost.mean p ~n ~r))
    [ (1, 0.5); (4, 2.); (7, 0.1) ]

let test_asymptote_approached () =
  (* for large r the cost approaches A_n(r) from wherever qE pi_n left it *)
  let n = 4 in
  let r = 50. in
  check_rel "C ~ A at large r" (Oracle.asymptote fig2 ~n ~r) (Cost.mean fig2 ~n ~r)

let test_asymptote_linear () =
  let n = 3 in
  let a1 = Oracle.asymptote fig2 ~n ~r:10. in
  let a2 = Oracle.asymptote fig2 ~n ~r:20. in
  let a3 = Oracle.asymptote fig2 ~n ~r:30. in
  check_rel "equal increments" (a2 -. a1) (a3 -. a2)

let test_asymptote_non_defective_limit () =
  (* with l = 1 the geometric factor (1-(1-l)^n)/l degenerates to n *)
  let p =
    Params.v ~name:"lossless"
      ~delay:(Dist.Families.shifted_exponential ~mass:1. ~rate:10. ~delay:1. ())
      ~q:0.1 ~probe_cost:1. ~error_cost:10.
  in
  let n = 3 and r = 5. in
  let expected =
    (r +. 1.) *. ((3. *. 0.9) +. (0.1 *. 3.)) /. 0.9
  in
  check_rel "continuity at l = 1" expected (Oracle.asymptote p ~n ~r)

(* dC_n/dr by Richardson extrapolation of the point values *)
let derivative p ~n ~r =
  Numerics.Derivative.richardson ~f:(fun r -> Cost.mean p ~n ~r) r

let test_derivative_sign_structure () =
  (* C_n falls to the minimum then rises: derivative negative before
     r_opt, positive after (figure2, n = 4, r_opt ~ 1.24) *)
  Alcotest.(check bool) "falling at 1.1" true (derivative fig2 ~n:4 ~r:1.1 < 0.);
  Alcotest.(check bool) "rising at 2.5" true (derivative fig2 ~n:4 ~r:2.5 > 0.)

let test_guards () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Cost.mean: n must be >= 1")
    (fun () -> ignore (Cost.mean fig2 ~n:0 ~r:1.));
  Alcotest.check_raises "negative r"
    (Invalid_argument "Cost.mean: negative listening period") (fun () ->
      ignore (Cost.mean fig2 ~n:1 ~r:(-0.1)))

(* property block: Eq. 3 must agree with the DRM matrix solution and
   stay within its structural bounds across random scenarios *)
let scenario_gen =
  QCheck.Gen.(
    let* loss = float_range 0. 0.5 in
    let* rate = float_range 0.5 20. in
    let* delay = float_range 0. 2. in
    let* q = float_range 0.01 0.9 in
    let* c = float_range 0. 5. in
    let* e = float_range 0. 1e4 in
    return
      (Params.v ~name:"prop"
         ~delay:(Dist.Families.shifted_exponential ~mass:(1. -. loss) ~rate ~delay ())
         ~q ~probe_cost:c ~error_cost:e))

let prop_eq3_matches_matrix_solution =
  QCheck.Test.make ~name:"Eq. 3 = generic absorbing-chain solve" ~count:200
    QCheck.(triple (make scenario_gen) (int_range 1 8) (float_range 0. 6.))
    (fun (p, n, r) ->
      let drm = Zeroconf.Drm.build p ~n ~r in
      Oracle.approx_eq ~rtol:1e-8 ~atol:1e-9
        (Cost.mean p ~n ~r)
        (Zeroconf.Drm.mean_cost drm))

let prop_cost_at_least_free_run =
  QCheck.Test.make ~name:"cost >= n (r + c) (1 - q): the free-run floor"
    ~count:300
    QCheck.(triple (make scenario_gen) (int_range 1 8) (float_range 0. 6.))
    (fun (p, n, r) ->
      Cost.mean p ~n ~r
      >= (float_of_int n *. (r +. p.Params.probe_cost) *. (1. -. p.Params.q)) -. 1e-9)

let prop_cost_increasing_in_error_cost =
  QCheck.Test.make ~name:"cost is non-decreasing in E" ~count:200
    QCheck.(triple (make scenario_gen) (int_range 1 6) (float_range 0.1 5.))
    (fun (p, n, r) ->
      let hi = Params.with_costs ~error_cost:(p.Params.error_cost +. 100.) p in
      Cost.mean hi ~n ~r >= Cost.mean p ~n ~r -. 1e-9)

let prop_cost_increasing_in_postage =
  QCheck.Test.make ~name:"cost is increasing in c" ~count:200
    QCheck.(triple (make scenario_gen) (int_range 1 6) (float_range 0.1 5.))
    (fun (p, n, r) ->
      let hi = Params.with_costs ~probe_cost:(p.Params.probe_cost +. 1.) p in
      Cost.mean hi ~n ~r > Cost.mean p ~n ~r -. 1e-12)

let () =
  Alcotest.run "cost"
    [ ( "boundary behaviour",
        [ Alcotest.test_case "C_n(0) = qE" `Quick test_at_zero_is_qE;
          Alcotest.test_case "draft value" `Quick test_figure2_draft_value;
          Alcotest.test_case "free network" `Quick test_free_network_costs_n_probes ] );
      ( "asymptote",
        [ Alcotest.test_case "approached" `Quick test_asymptote_approached;
          Alcotest.test_case "linear" `Quick test_asymptote_linear;
          Alcotest.test_case "l = 1 continuity" `Quick
            test_asymptote_non_defective_limit ] );
      ( "shape",
        [ Alcotest.test_case "derivative signs" `Quick test_derivative_sign_structure;
          Alcotest.test_case "guards" `Quick test_guards ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_eq3_matches_matrix_solution; prop_cost_at_least_free_run;
            prop_cost_increasing_in_error_cost; prop_cost_increasing_in_postage ]
      ) ]
