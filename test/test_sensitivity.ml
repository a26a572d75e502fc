module S = Zeroconf.Sensitivity
module Params = Zeroconf.Params

let scenario = Params.wireless_worst_case
let knob name knobs = List.find (fun (k : S.knob) -> k.S.name = name) knobs
let standard = S.standard_knobs scenario

(* Knobs for the scenario's shifted-exponential F_X: the loss
   probability [1 - l], the reply rate [lambda] and the round trip [d],
   each rebuilding the distribution around a moved value with the other
   two at their baselines *)
let delay_knobs =
  let loss = 1e-5 and rate = 10. and delay = 1. in
  let rebuild ~loss ~rate ~delay p =
    Params.with_delay p
      (Dist.Families.shifted_exponential ~mass:(1. -. loss) ~rate ~delay ())
  in
  [ { S.name = "loss"; value = loss;
      apply = (fun p v -> rebuild ~loss:v ~rate ~delay p) };
    { S.name = "lambda"; value = rate;
      apply = (fun p v -> rebuild ~loss ~rate:v ~delay p) };
    { S.name = "rtt"; value = delay;
      apply = (fun p v -> rebuild ~loss ~rate ~delay:v p) } ]

(* Elasticity of E(n, r) through log10 E, so it stays meaningful where
   E underflows: d log10 E / d ln x, times ln 10 *)
let error_elasticity p (k : S.knob) ~n ~r =
  let g u =
    Zeroconf.Reliability.log10_error_probability (k.S.apply p (exp u)) ~n ~r
  in
  Oracle.central ~f:g (log k.S.value) *. Float.log 10.

let test_standard_knobs_roundtrip () =
  (* applying the current value must reproduce the scenario's outputs *)
  List.iter
    (fun (k : S.knob) ->
      let rebuilt = k.S.apply scenario k.S.value in
      Alcotest.(check bool)
        (Printf.sprintf "%s roundtrip" k.S.name)
        true
        (Oracle.approx_eq ~rtol:1e-12
           (Zeroconf.Cost.mean scenario ~n:4 ~r:2.)
           (Zeroconf.Cost.mean rebuilt ~n:4 ~r:2.)))
    (standard @ delay_knobs)

let test_postage_elasticity_exact () =
  (* C is affine in c: d ln C / d ln c = c * G / ((r + c) G + small) --
     with the error term negligible this is c/(r+c) scaled by the share
     of (r+c) in the cost.  Sanity: within (0, 1). *)
  let e = S.cost_elasticity scenario (knob "c" standard) ~n:4 ~r:2. in
  Alcotest.(check bool) (Printf.sprintf "c elasticity %.4f in (0,1)" e) true
    (e > 0. && e < 1.)

let test_error_cost_elasticity_small () =
  (* at the draft point the qE pi term is tiny, so E barely moves C *)
  let e = S.cost_elasticity scenario (knob "E" standard) ~n:4 ~r:2. in
  Alcotest.(check bool) (Printf.sprintf "E elasticity %.4f < 0.05" e) true
    (e >= 0. && e < 0.05)

let test_zero_knob_elasticity () =
  (* q = 0 (no other host) and E = 0 leave a finite, positive cost, so
     x C'(x) / C(x) is 0 there *)
  List.iter
    (fun (name, p) ->
      let k = knob name (S.standard_knobs p) in
      Alcotest.(check (float 0.)) (name ^ " = 0") 0.
        (S.cost_elasticity p k ~n:4 ~r:2.))
    [ ("q", Params.with_q scenario 0.);
      ("E", Params.with_costs ~error_cost:0. scenario) ]

let test_q_error_elasticity_is_one () =
  (* E(n, r) ~ q pi_n for small q: elasticity of error w.r.t. q ~ 1 *)
  let e = error_elasticity scenario (knob "q" standard) ~n:4 ~r:2. in
  Alcotest.(check bool) (Printf.sprintf "q error-elasticity %.4f ~ 1" e) true
    (Float.abs (e -. 1.) < 0.05)

let test_c_error_elasticity_is_zero () =
  (* Eq. 4 does not mention c at all *)
  let e = error_elasticity scenario (knob "c" standard) ~n:4 ~r:2. in
  Alcotest.(check (float 1e-9)) "exactly zero" 0. e

let test_rtt_lambda_antisymmetric () =
  (* for the shifted exponential, survival at the draft point depends on
     lambda (t - d); at t - d = 1 = d the two elasticities mirror *)
  let e_rtt = error_elasticity scenario (knob "rtt" delay_knobs) ~n:4 ~r:2. in
  let e_lam = error_elasticity scenario (knob "lambda" delay_knobs) ~n:4 ~r:2. in
  Alcotest.(check bool) "rtt raises error" true (e_rtt > 0.);
  Alcotest.(check bool) "lambda lowers error" true (e_lam < 0.);
  Alcotest.(check bool)
    (Printf.sprintf "mirrored: %.3f vs %.3f" e_rtt e_lam)
    true
    (Float.abs (e_rtt +. e_lam) < 0.05 *. Float.abs e_rtt)

let test_loss_error_elasticity_positive () =
  let e = error_elasticity scenario (knob "loss" delay_knobs) ~n:4 ~r:2. in
  Alcotest.(check bool) "more loss, more error" true (e > 0.)

let () =
  Alcotest.run "sensitivity"
    [ ( "knobs",
        [ Alcotest.test_case "roundtrip" `Quick test_standard_knobs_roundtrip ] );
      ( "cost elasticities",
        [ Alcotest.test_case "postage" `Quick test_postage_elasticity_exact;
          Alcotest.test_case "error cost" `Quick test_error_cost_elasticity_small;
          Alcotest.test_case "zero knob" `Quick test_zero_knob_elasticity ] );
      ( "error elasticities",
        [ Alcotest.test_case "q ~ 1" `Quick test_q_error_elasticity_is_one;
          Alcotest.test_case "c = 0" `Quick test_c_error_elasticity_is_zero;
          Alcotest.test_case "rtt vs lambda" `Quick test_rtt_lambda_antisymmetric;
          Alcotest.test_case "loss positive" `Quick test_loss_error_elasticity_positive ] ) ]
