module S = Numerics.Stats

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let test_summarize () =
  let s = S.summarize [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_close "mean" 5. s.S.mean;
  check_close "variance (n-1)" (32. /. 7.) s.S.variance;
  check_close "min" 2. s.S.min;
  check_close "max" 9. s.S.max;
  Alcotest.(check int) "n" 8 s.S.n

let test_summarize_singleton () =
  let s = S.summarize [| 42. |] in
  check_close "mean" 42. s.S.mean;
  check_close "variance" 0. s.S.variance;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty sample")
    (fun () -> ignore (S.summarize [||]))

(* [summarize] against the copy-and-sum it replaced, bit for bit, on
   2000 arrays of 8 uniform draws.  Squaring a deviation as [d *. d]
   instead of [d ** 2.] changes the variance's last bit on a handful of
   them (4 of these 2000), so this pins the [pow] that every
   Monte-Carlo bound rests on. *)
let test_summarize_bits () =
  for seed = 1 to 2000 do
    let rng = Numerics.Rng.create seed in
    let xs = Array.init 8 (fun _ -> Numerics.Rng.float rng) in
    let s = S.summarize xs in
    let mean = Numerics.Safe_float.mean xs in
    let variance =
      Numerics.Safe_float.sum (Array.map (fun x -> (x -. mean) ** 2.) xs) /. 7.
    in
    let bits = List.map Int64.bits_of_float in
    if
      bits [ s.S.mean; s.S.variance; s.S.min; s.S.max ]
      <> bits
           [ mean; variance; Array.fold_left Float.min xs.(0) xs;
             Array.fold_left Float.max xs.(0) xs ]
    then Alcotest.failf "seed %d: summary differs from the reference" seed
  done

(* Past about 1e154 the squared deviations overflow, and past
   max_float so does the plain sum for the mean: both are taken again,
   scaled, so the mean and the standard deviation stay finite (the
   variance itself is infinite) and an interval around them too. *)
let test_summarize_huge () =
  let check_rel msg expected actual =
    if Float.abs (actual -. expected) > 1e-12 *. Float.abs expected then
      Alcotest.failf "%s: expected %h, got %h" msg expected actual
  in
  let unit = S.summarize [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  let big = S.summarize (Array.map (fun x -> x *. 1e300) [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |]) in
  check_rel "mean at 1e300" (unit.S.mean *. 1e300) big.S.mean;
  check_rel "std at 1e300" (unit.S.std *. 1e300) big.S.std;
  Alcotest.(check bool) "variance overflows" true (big.S.variance = infinity);
  let s = S.summarize [| 1e308; 1.5e308 |] in
  check_rel "mean past max_float" 1.25e308 s.S.mean;
  check_rel "std past max_float" (0.25e308 *. sqrt 2.) s.S.std;
  let lo, hi = S.summary_ci s in
  Alcotest.(check bool) "finite interval" true
    (Float.is_finite lo && Float.is_finite hi && lo < s.S.mean && s.S.mean < hi)

let test_normal_quantile () =
  check_close ~tol:1e-8 "median" 0. (Oracle.normal_quantile 0.5);
  check_close ~tol:1e-6 "97.5%" 1.959963985 (Oracle.normal_quantile 0.975);
  check_close ~tol:1e-6 "2.5%" (-1.959963985) (Oracle.normal_quantile 0.025);
  check_close ~tol:1e-5 "99.9%" 3.090232306 (Oracle.normal_quantile 0.999);
  Alcotest.check_raises "p = 0"
    (Invalid_argument "Oracle.normal_quantile: p outside (0,1)") (fun () ->
      ignore (Oracle.normal_quantile 0.));
  (* the 95% intervals use the 97.5% quantile, bit for bit *)
  let s = S.summarize [| 1.; 2.; 4.; 8. |] in
  let z = Oracle.normal_quantile 0.975 in
  let lo, hi = S.summary_ci s in
  Alcotest.(check (pair (float 0.) (float 0.))) "summary_ci half-width"
    (let half = z *. s.S.std /. sqrt 4. in
     (s.S.mean -. half, s.S.mean +. half))
    (lo, hi)

let test_normal_quantile_symmetry () =
  List.iter
    (fun p ->
      check_close ~tol:1e-7 (Printf.sprintf "symmetry at %g" p)
        (Oracle.normal_quantile p)
        (-.Oracle.normal_quantile (1. -. p)))
    [ 0.001; 0.01; 0.1; 0.3; 0.45 ]

let test_summary_ci () =
  let rng = Numerics.Rng.create 17 in
  let data = Array.init 10_000 (fun _ -> Oracle.normal rng ~mu:10. ~sigma:1.) in
  let lo, hi = S.summary_ci (S.summarize data) in
  Alcotest.(check bool) "interval contains truth" true (lo <= 10. && 10. <= hi);
  Alcotest.(check bool) "interval is tight" true (hi -. lo < 0.1)

let test_proportion_ci () =
  let lo, hi = S.proportion_ci ~successes:0 100 in
  check_close "wilson lower at 0 successes" 0. lo;
  Alcotest.(check bool) "wilson upper positive at 0 successes" true (hi > 0.);
  let lo, hi = S.proportion_ci ~successes:50 100 in
  Alcotest.(check bool) "contains 0.5" true (lo < 0.5 && 0.5 < hi);
  Alcotest.check_raises "bad trials"
    (Invalid_argument "Stats.proportion_ci: trials <= 0") (fun () ->
      ignore (S.proportion_ci ~successes:0 0))

let test_quantile () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_close "median" 3. (S.quantile xs 0.5);
  check_close "min" 1. (S.quantile xs 0.);
  check_close "max" 5. (S.quantile xs 1.);
  check_close "interpolated" 1.4 (S.quantile xs 0.1);
  (* input not mutated *)
  let shuffled = [| 5.; 1.; 3.; 2.; 4. |] in
  ignore (S.quantile shuffled 0.5);
  Alcotest.(check (array (float 0.))) "input intact" [| 5.; 1.; 3.; 2.; 4. |] shuffled

let test_ecdf () =
  let f = Oracle.ecdf [| 1.; 2.; 3. |] in
  check_close "below all" 0. (f 0.5);
  check_close "at first" (1. /. 3.) (f 1.);
  check_close "between" (2. /. 3.) (f 2.5);
  check_close "above all" 1. (f 10.)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile is monotone in p" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 2 30) (float_range (-100.) 100.))
              (pair (float_range 0. 1.) (float_range 0. 1.)))
    (fun (xs, (p1, p2)) ->
      let xs = Array.of_list xs in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      S.quantile xs lo <= S.quantile xs hi +. 1e-12)

let prop_ecdf_matches_quantile =
  (* quantile interpolates between order statistics, so the ecdf can lag
     by at most one sample weight *)
  QCheck.Test.make ~name:"ecdf (quantile p) >= p - 1/n" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 2 30) (float_range (-10.) 10.))
              (float_range 0.05 0.95))
    (fun (xs, p) ->
      let xs = Array.of_list xs in
      let slack = 1. /. float_of_int (Array.length xs) in
      Oracle.ecdf xs (S.quantile xs p) >= p -. slack -. 1e-9)

let () =
  Alcotest.run "stats"
    [ ( "summary",
        [ Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "singleton/empty" `Quick test_summarize_singleton;
          Alcotest.test_case "bits = copy and sum" `Quick test_summarize_bits;
          Alcotest.test_case "huge values" `Quick test_summarize_huge ] );
      ( "normal quantile",
        [ Alcotest.test_case "values" `Quick test_normal_quantile;
          Alcotest.test_case "symmetry" `Quick test_normal_quantile_symmetry ] );
      ( "intervals",
        [ Alcotest.test_case "summary ci" `Quick test_summary_ci;
          Alcotest.test_case "proportion ci" `Quick test_proportion_ci ] );
      ( "order statistics",
        [ Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "ecdf" `Quick test_ecdf ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_quantile_monotone; prop_ecdf_matches_quantile ] ) ]
