module Fit = Dist.Fit
module F = Dist.Families
module D = Dist.Distribution

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let draw_samples dist ~count ~seed =
  let rng = Numerics.Rng.create seed in
  let delays = ref [] and losses = ref 0 in
  for _ = 1 to count do
    match dist.D.sample rng with
    | Some d -> delays := d :: !delays
    | None -> incr losses
  done;
  (Array.of_list !delays, !losses)

let test_mle_recovers_parameters () =
  let truth = F.shifted_exponential ~mass:0.97 ~rate:6. ~delay:0.4 () in
  let samples, losses = draw_samples truth ~count:20_000 ~seed:1 in
  let fit = Fit.shifted_exponential_mle ~losses samples in
  Alcotest.(check bool)
    (Printf.sprintf "delay %.4f near 0.4" fit.Fit.delay)
    true
    (Float.abs (fit.Fit.delay -. 0.4) < 0.01);
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f near 6" fit.Fit.rate)
    true
    (Float.abs (fit.Fit.rate -. 6.) < 0.2);
  Alcotest.(check bool)
    (Printf.sprintf "loss %.4f near 0.03" fit.Fit.loss)
    true
    (Float.abs (fit.Fit.loss -. 0.03) < 0.005)

let test_mle_exact_structure () =
  (* the closed form is exact on tiny inputs: d = min, rate = 1/(mean-d) *)
  let samples = [| 1.; 2.; 3. |] in
  let fit = Fit.shifted_exponential_mle ~losses:0 samples in
  check_close "delay is min" 1. fit.Fit.delay;
  check_close "rate" 1. fit.Fit.rate;
  check_close "no loss" 0. fit.Fit.loss

let test_to_distribution_roundtrip () =
  let fit = { Fit.loss = 0.1; delay = 0.5; rate = 2. } in
  let d = Fit.to_distribution fit in
  check_close "mass" 0.9 d.D.mass;
  check_close "mean" 1.0 d.D.mean;
  check_close "no mass before the floor" 0. (d.D.cdf 0.49)

let test_assess_prefers_the_right_family () =
  (* data from a shifted exponential: the correct family must beat an
     exponential of the same mean, which has no round-trip floor, on KS
     distance *)
  let truth = F.shifted_exponential ~mass:1. ~rate:8. ~delay:0.3 () in
  let samples, _ = draw_samples truth ~count:5_000 ~seed:4 in
  let good = Fit.to_distribution (Fit.shifted_exponential_mle ~losses:0 samples) in
  let alt = F.exponential ~rate:(1. /. Numerics.Safe_float.mean samples) () in
  let q_good = Fit.assess ~losses:0 good samples in
  let q_alt = Fit.assess ~losses:0 alt samples in
  Alcotest.(check bool)
    (Printf.sprintf "KS %.4f < %.4f" q_good.Fit.ks_statistic q_alt.Fit.ks_statistic)
    true
    (q_good.Fit.ks_statistic < q_alt.Fit.ks_statistic);
  Alcotest.(check bool) "log likelihood agrees on ordering" true
    (q_good.Fit.log_likelihood > q_alt.Fit.log_likelihood)

let test_assess_ks_small_on_own_sample () =
  let truth = F.exponential ~rate:3. () in
  let samples, _ = draw_samples truth ~count:10_000 ~seed:5 in
  let q = Fit.assess ~losses:0 truth samples in
  Alcotest.(check bool)
    (Printf.sprintf "KS %.4f below 0.02" q.Fit.ks_statistic)
    true
    (q.Fit.ks_statistic < 0.02)

let test_guards () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Fit.shifted_exponential_mle: empty sample") (fun () ->
      ignore (Fit.shifted_exponential_mle ~losses:0 [||]));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Fit.assess: bad delay") (fun () ->
      ignore (Fit.assess ~losses:0 (F.exponential ~rate:1. ()) [| -1. |]))

let prop_fit_regret_small =
  (* end-to-end: fitting from the distribution's own samples and
     optimizing on the fit must cost at most a few percent more than
     optimizing on the truth *)
  QCheck.Test.make ~name:"deploying a fitted design has small regret" ~count:8
    QCheck.(pair (float_range 2. 10.) (float_range 0.05 0.5))
    (fun (rate, delay) ->
      let truth = F.shifted_exponential ~mass:0.99 ~rate ~delay () in
      let samples, losses = draw_samples truth ~count:4_000 ~seed:6 in
      let fitted = Fit.to_distribution (Fit.shifted_exponential_mle ~losses samples) in
      let scenario d =
        Zeroconf.Params.v ~name:"fit" ~delay:d ~q:0.05 ~probe_cost:1.
          ~error_cost:1e8
      in
      let o_true = Zeroconf.Optimize.global_optimum (scenario truth) in
      let o_fit = Zeroconf.Optimize.global_optimum (scenario fitted) in
      let deployed =
        Zeroconf.Cost.mean (scenario truth) ~n:o_fit.Zeroconf.Optimize.n
          ~r:o_fit.Zeroconf.Optimize.r
      in
      deployed <= o_true.Zeroconf.Optimize.cost *. 1.05)

let () =
  Alcotest.run "fit"
    [ ( "shifted exponential",
        [ Alcotest.test_case "recovers parameters" `Quick test_mle_recovers_parameters;
          Alcotest.test_case "exact structure" `Quick test_mle_exact_structure;
          Alcotest.test_case "to_distribution" `Quick test_to_distribution_roundtrip ] );
      ( "assessment",
        [ Alcotest.test_case "right family wins" `Quick
            test_assess_prefers_the_right_family;
          Alcotest.test_case "KS small on own sample" `Quick
            test_assess_ks_small_on_own_sample;
          Alcotest.test_case "guards" `Quick test_guards ] );
      ( "end to end",
        [ QCheck_alcotest.to_alcotest prop_fit_regret_small ] ) ]
