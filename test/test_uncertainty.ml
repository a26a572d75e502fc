module U = Zeroconf.Uncertainty

let draw truth ~count ~seed =
  let rng = Numerics.Rng.create seed in
  let delays = ref [] and losses = ref 0 in
  for _ = 1 to count do
    match truth.Dist.Distribution.sample rng with
    | Some d -> delays := d :: !delays
    | None -> incr losses
  done;
  (Array.of_list !delays, !losses)

let truth = Dist.Families.shifted_exponential ~mass:0.99 ~rate:8. ~delay:0.1 ()

let run ~count ~seed ~rounds =
  let delays, losses = draw truth ~count ~seed in
  U.bootstrap ~rounds ~losses ~rng:(Numerics.Rng.create (seed + 1)) ~delays
    ~q:0.05 ~probe_cost:1. ~error_cost:1e8 ()

let test_structure () =
  let r = run ~count:500 ~seed:1 ~rounds:50 in
  Alcotest.(check int) "rounds recorded" 50 r.U.rounds;
  Alcotest.(check int) "votes sum to rounds" 50
    (List.fold_left (fun acc (_, c) -> acc + c) 0 r.U.n_votes);
  Alcotest.(check bool) "modal n positive" true (r.U.modal_n >= 1);
  let lo, hi = r.U.r_ci in
  Alcotest.(check bool) "interval ordered" true (lo <= hi);
  Alcotest.(check bool) "mean within interval" true
    (r.U.r_summary.Numerics.Stats.mean >= lo -. 1e-9
    && r.U.r_summary.Numerics.Stats.mean <= hi +. 1e-9)

let test_modal_recommendation_matches_truth () =
  (* with plenty of data, the modal recommendation equals the optimum
     computed from the true distribution *)
  let r = run ~count:5_000 ~seed:2 ~rounds:40 in
  let true_opt =
    Zeroconf.Optimize.global_optimum
      (Zeroconf.Params.v ~name:"truth" ~delay:truth ~q:0.05 ~probe_cost:1.
         ~error_cost:1e8)
  in
  Alcotest.(check int) "modal n = true optimal n" true_opt.Zeroconf.Optimize.n
    r.U.modal_n;
  let lo, hi = r.U.r_ci in
  Alcotest.(check bool)
    (Printf.sprintf "true r %.3f in bootstrap CI [%.3f, %.3f]"
       true_opt.Zeroconf.Optimize.r lo hi)
    true
    (true_opt.Zeroconf.Optimize.r >= lo -. 0.05
    && true_opt.Zeroconf.Optimize.r <= hi +. 0.05)

let test_more_data_tightens_interval () =
  let small = run ~count:60 ~seed:3 ~rounds:60 in
  let large = run ~count:6_000 ~seed:3 ~rounds:60 in
  let width (lo, hi) = hi -. lo in
  Alcotest.(check bool)
    (Printf.sprintf "width %.4f (n=60) >= width %.4f (n=6000)"
       (width small.U.r_ci) (width large.U.r_ci))
    true
    (width small.U.r_ci >= width large.U.r_ci -. 1e-6)

let test_guards () =
  Alcotest.check_raises "empty" (Invalid_argument "Uncertainty.bootstrap: empty sample")
    (fun () ->
      ignore
        (U.bootstrap ~rounds:200 ~losses:0 ~rng:(Numerics.Rng.create 1) ~delays:[||] ~q:0.1
           ~probe_cost:1. ~error_cost:1. ()))

let test_pp () =
  let r = run ~count:200 ~seed:4 ~rounds:20 in
  let s = Format.asprintf "%a" U.pp r in
  Alcotest.(check bool) "mentions rounds" true (String.length s > 40)

let () =
  Alcotest.run "uncertainty"
    [ ( "bootstrap",
        [ Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "recovers the truth" `Slow
            test_modal_recommendation_matches_truth;
          Alcotest.test_case "data tightens" `Slow test_more_data_tightens_interval;
          Alcotest.test_case "guards" `Quick test_guards;
          Alcotest.test_case "printer" `Quick test_pp ] ) ]
