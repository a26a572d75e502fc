module R = Zeroconf.Reliability
module Params = Zeroconf.Params

let check_rel ?(rtol = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.12g vs %.12g" msg expected actual)
    true
    (Oracle.approx_eq ~rtol expected actual)

let fig2 = Params.figure2

let test_at_zero_equals_conditional_q () =
  (* r = 0: pi_n = 1, so E = q / (1 - q + q) = q *)
  check_rel "E(n, 0) = q" fig2.Params.q (R.error_probability fig2 ~n:4 ~r:0.)

let test_draft_regression () =
  (* pinned value computed at build time and cross-checked by hand *)
  check_rel ~rtol:1e-4 "E(4, 2) on figure2" 6.6957e-50
    (R.error_probability fig2 ~n:4 ~r:2.)

let test_free_network_never_errs () =
  let p = Params.with_q fig2 0. in
  Alcotest.(check (float 0.)) "q = 0 means no collision" 0.
    (R.error_probability p ~n:4 ~r:2.)

let test_complement () =
  (* every run ends in error or ok: the reliability, absorption into ok,
     is the complement of Eq. 4 *)
  let e = R.error_probability fig2 ~n:3 ~r:1.5 in
  let drm = Zeroconf.Drm.build fig2 ~n:3 ~r:1.5 in
  check_rel "reliability complements" (1. -. e)
    (Dtmc.Absorbing.absorption_probability drm.Zeroconf.Drm.chain
       ~from:drm.Zeroconf.Drm.start ~into:drm.Zeroconf.Drm.ok)

let test_log10_matches_linear () =
  List.iter
    (fun (n, r) ->
      check_rel ~rtol:1e-6
        (Printf.sprintf "log10 at n=%d r=%g" n r)
        (log10 (R.error_probability fig2 ~n ~r))
        (R.log10_error_probability fig2 ~n ~r))
    [ (1, 1.5); (3, 2.); (4, 2.) ]

let test_log10_below_float_underflow () =
  (* 40 probes at r = 3: the linear value underflows to 0 but the log
     form reports the true magnitude *)
  let v = R.log10_error_probability fig2 ~n:40 ~r:3. in
  Alcotest.(check bool) "finite and very negative" true
    (Float.is_finite v && v < -300.)

let test_error_bound_is_floor () =
  let p = Params.wireless_worst_case in
  let n = 4 in
  let floor = Oracle.error_floor p ~n in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "E(n, %g) >= floor" r)
        true
        (R.error_probability p ~n ~r >= floor -. 1e-18))
    [ 0.5; 1.; 2.; 5.; 50. ];
  check_rel ~rtol:1e-3 "floor attained at huge r" floor
    (R.error_probability p ~n ~r:1e5)

let scenario_gen =
  QCheck.Gen.(
    let* loss = float_range 0. 0.5 in
    let* rate = float_range 0.5 20. in
    let* delay = float_range 0. 2. in
    let* q = float_range 0.01 0.9 in
    return
      (Params.v ~name:"prop"
         ~delay:(Dist.Families.shifted_exponential ~mass:(1. -. loss) ~rate ~delay ())
         ~q ~probe_cost:1. ~error_cost:100.))

let prop_eq4_matches_matrix =
  QCheck.Test.make ~name:"Eq. 4 = absorption probability into error" ~count:200
    QCheck.(triple (make scenario_gen) (int_range 1 8) (float_range 0. 6.))
    (fun (p, n, r) ->
      let drm = Zeroconf.Drm.build p ~n ~r in
      Oracle.approx_eq ~rtol:1e-8 ~atol:1e-12
        (R.error_probability p ~n ~r)
        (Zeroconf.Drm.error_probability drm))

let prop_is_probability =
  QCheck.Test.make ~name:"E(n, r) in [0, 1]" ~count:300
    QCheck.(triple (make scenario_gen) (int_range 1 10) (float_range 0. 10.))
    (fun (p, n, r) ->
      Numerics.Safe_float.is_probability (R.error_probability p ~n ~r))

let prop_decreasing_in_n =
  QCheck.Test.make ~name:"more probes never hurt reliability" ~count:200
    QCheck.(triple (make scenario_gen) (int_range 1 8) (float_range 0.1 6.))
    (fun (p, n, r) ->
      R.error_probability p ~n:(n + 1) ~r <= R.error_probability p ~n ~r +. 1e-12)

let prop_decreasing_in_r =
  QCheck.Test.make ~name:"longer listening never hurts reliability" ~count:200
    QCheck.(quad (make scenario_gen) (int_range 1 8) (float_range 0.05 5.)
              (float_range 0.05 5.))
    (fun (p, n, r1, r2) ->
      let lo = Float.min r1 r2 and hi = Float.max r1 r2 in
      R.error_probability p ~n ~r:hi <= R.error_probability p ~n ~r:lo +. 1e-12)

let prop_bounded_by_q =
  QCheck.Test.make ~name:"E(n, r) <= q (collision needs an occupied pick)"
    ~count:300
    QCheck.(triple (make scenario_gen) (int_range 1 8) (float_range 0. 6.))
    (fun (p, n, r) -> R.error_probability p ~n ~r <= p.Params.q +. 1e-12)

let () =
  Alcotest.run "reliability"
    [ ( "point values",
        [ Alcotest.test_case "at zero" `Quick test_at_zero_equals_conditional_q;
          Alcotest.test_case "draft regression" `Quick test_draft_regression;
          Alcotest.test_case "free network" `Quick test_free_network_never_errs;
          Alcotest.test_case "complement" `Quick test_complement ] );
      ( "log form",
        [ Alcotest.test_case "matches linear" `Quick test_log10_matches_linear;
          Alcotest.test_case "below underflow" `Quick test_log10_below_float_underflow ] );
      ( "bounds",
        [ Alcotest.test_case "loss floor" `Quick test_error_bound_is_floor ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_eq4_matches_matrix; prop_is_probability; prop_decreasing_in_n;
            prop_decreasing_in_r; prop_bounded_by_q ] ) ]
