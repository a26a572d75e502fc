module Cal = Zeroconf.Calibrate
module Params = Zeroconf.Params

let check_close ?(tol = 1e-6) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let wireless_network =
  Params.v ~name:"sec45-wireless"
    ~delay:(Dist.Families.shifted_exponential ~mass:(1. -. 1e-5) ~rate:10. ~delay:1. ())
    ~q:(Params.q_of_hosts 1000) ~probe_cost:0. ~error_cost:0.

let wired_network =
  Params.v ~name:"sec45-wired"
    ~delay:(Dist.Families.shifted_exponential ~mass:(1. -. 1e-10) ~rate:100. ~delay:0.1 ())
    ~q:(Params.q_of_hosts 1000) ~probe_cost:0. ~error_cost:0.

(* The calibrations, run once: [Calibrate.run] solves the stationarity
   condition for E at every postage it tries, and returns the E of the
   threshold postage *)
let wireless = lazy (Cal.run wireless_network ~n:4 ~r:2.)
let wired = lazy (Cal.run wired_network ~n:4 ~r:0.2)

let test_stationarity_e_wireless () =
  (* the paper derives E_{r=2} = 5e20 "by simple numerical
     approximation"; the exact stationarity solution is 5.66e20 *)
  let e = (Lazy.force wireless).Cal.error_cost in
  Alcotest.(check bool)
    (Printf.sprintf "E = %.3g within [4e20, 7e20]" e)
    true
    (e > 4e20 && e < 7e20)

let test_stationarity_e_wired () =
  (* paper: E_{r=0.2} = 1e35; exact stationarity gives 5.6e34 *)
  let e = (Lazy.force wired).Cal.error_cost in
  Alcotest.(check bool)
    (Printf.sprintf "E = %.3g within [3e34, 2e35]" e)
    true
    (e > 3e34 && e < 2e35)

let test_stationarity_e_barely_depends_on_c () =
  (* the stationarity E is (nearly) independent of c: under the
     calibrated E, r_t stays the optimum of C_4 at postages an order of
     magnitude apart *)
  let e = (Lazy.force wireless).Cal.error_cost in
  List.iter
    (fun c ->
      let p = Params.with_costs ~probe_cost:c ~error_cost:e wireless_network in
      let r = (Zeroconf.Optimize.optimal_r p ~n:4).Numerics.Minimize.x in
      Alcotest.(check bool)
        (Printf.sprintf "c = %g moves r_opt(4) = %g by < 1%%" c r)
        true
        (Float.abs ((r /. 2.) -. 1.) < 0.01))
    [ 0.5; 5. ]

let test_full_calibration_wireless () =
  let res = Lazy.force wireless in
  (* threshold postage just below the paper's rounded 3.5 *)
  Alcotest.(check bool)
    (Printf.sprintf "c = %.3f in [2.5, 3.5]" res.Cal.probe_cost)
    true
    (res.Cal.probe_cost > 2.5 && res.Cal.probe_cost <= 3.5);
  Alcotest.(check int) "target n is optimal" 4 res.Cal.optimum.Zeroconf.Optimize.n;
  check_close ~tol:0.02 "target r recovered" 2. res.Cal.optimum.Zeroconf.Optimize.r;
  Alcotest.(check bool) "r residual small" true (res.Cal.r_residual < 0.02)

let test_full_calibration_wired () =
  let res = Lazy.force wired in
  Alcotest.(check bool)
    (Printf.sprintf "c = %.3f in [0.2, 0.5]" res.Cal.probe_cost)
    true
    (res.Cal.probe_cost > 0.2 && res.Cal.probe_cost <= 0.5);
  Alcotest.(check int) "target n is optimal" 4 res.Cal.optimum.Zeroconf.Optimize.n;
  check_close ~tol:0.005 "target r recovered" 0.2 res.Cal.optimum.Zeroconf.Optimize.r

let test_paper_costs_make_draft_optimal () =
  (* forward check of Sec. 4.5: under the paper's (E, c) the draft's
     (4, 2) resp. (4, 0.2) are globally optimal *)
  let check_scenario base e c n r =
    let p = Params.with_costs ~probe_cost:c ~error_cost:e base in
    let o = Zeroconf.Optimize.global_optimum p in
    Alcotest.(check int) "draft n optimal" n o.Zeroconf.Optimize.n;
    check_close ~tol:(0.05 *. r) "draft r optimal" r o.Zeroconf.Optimize.r
  in
  check_scenario wireless_network 5e20 3.5 4 2.;
  check_scenario wired_network 1e35 0.5 4 0.2

let test_guards () =
  Alcotest.check_raises "n = 0"
    (Invalid_argument "Calibrate.run: n < 1") (fun () ->
      ignore (Cal.run wireless_network ~n:0 ~r:2.));
  Alcotest.check_raises "r = 0"
    (Invalid_argument "Calibrate.run: r <= 0") (fun () ->
      ignore (Cal.run wireless_network ~n:4 ~r:0.))

let () =
  Alcotest.run "calibrate"
    [ ( "stationarity E",
        [ Alcotest.test_case "wireless" `Quick test_stationarity_e_wireless;
          Alcotest.test_case "wired" `Quick test_stationarity_e_wired;
          Alcotest.test_case "independent of c" `Quick
            test_stationarity_e_barely_depends_on_c ] );
      ( "full inverse problem",
        [ Alcotest.test_case "wireless (Sec. 4.5 r=2)" `Slow
            test_full_calibration_wireless;
          Alcotest.test_case "wired (Sec. 4.5 r=0.2)" `Slow
            test_full_calibration_wired ] );
      ( "forward check",
        [ Alcotest.test_case "paper costs make draft optimal" `Quick
            test_paper_costs_make_draft_optimal;
          Alcotest.test_case "guards" `Quick test_guards ] ) ]
