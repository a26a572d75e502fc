module I = Dtmc.Importance
module C = Dtmc.Chain

let chain_of arrays labels =
  C.create ~labels (Rows.of_dense arrays)

(* rare route: s -> bad with prob 1e-6, else -> good *)
let rare p_bad =
  chain_of
    [| [| 0.; p_bad; 1. -. p_bad |]; [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |] |]
    [| "s"; "bad"; "good" |]

let test_unbiased_with_identity_proposal () =
  (* proposal = target chain: ordinary MC, must work on common events *)
  let c = rare 0.3 in
  let est =
    I.estimate_absorption ~trials:20_000 ~rng:(Numerics.Rng.create 1) ~proposal:c
      c ~from:0 ~into:1
  in
  Alcotest.(check bool)
    (Printf.sprintf "CI [%g, %g] covers 0.3" est.I.ci_lo est.I.ci_hi)
    true
    (est.I.ci_lo <= 0.3 && 0.3 <= est.I.ci_hi)

let test_rare_event_with_boost () =
  (* p = 1e-6: plain MC with 20k trials would almost surely see nothing;
     the boosted proposal nails it *)
  let c = rare 1e-6 in
  let proposal = I.boosted_proposal c ~toward:1 in
  let est =
    I.estimate_absorption ~trials:20_000 ~rng:(Numerics.Rng.create 2) ~proposal c
      ~from:0 ~into:1
  in
  Alcotest.(check bool) "many weighted hits" true (est.I.hits > 1_000);
  Alcotest.(check bool)
    (Printf.sprintf "CI [%g, %g] covers 1e-6" est.I.ci_lo est.I.ci_hi)
    true
    (est.I.ci_lo <= 1e-6 && 1e-6 <= est.I.ci_hi);
  Alcotest.(check bool) "tight relative error" true (est.I.relative_error < 0.1)

let test_multistep_rare_route () =
  (* two rare hops in sequence: 1e-4 each, total 1e-8 *)
  let c =
    chain_of
      [| [| 0.; 1e-4; 0.; 1. -. 1e-4 |];
         [| 0.; 0.; 1e-4; 1. -. 1e-4 |];
         [| 0.; 0.; 1.; 0. |];
         [| 0.; 0.; 0.; 1. |] |]
      [| "s"; "half"; "bad"; "good" |]
  in
  let proposal = I.boosted_proposal c ~toward:2 in
  let est =
    I.estimate_absorption ~trials:30_000 ~rng:(Numerics.Rng.create 3) ~proposal c
      ~from:0 ~into:2
  in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.3e near 1e-8" est.I.mean)
    true
    (est.I.ci_lo <= 1e-8 && 1e-8 <= est.I.ci_hi)

let test_absolute_continuity_checked () =
  let c = rare 0.5 in
  (* proposal that kills the s -> bad edge *)
  let bad_proposal = rare 0.0001 in
  ignore bad_proposal;
  let zeroed =
    chain_of
      [| [| 0.; 0.; 1. |] (* no mass on the used edge *); [| 0.; 1.; 0. |];
         [| 0.; 0.; 1. |] |]
      [| "s"; "bad"; "good" |]
  in
  try
    ignore
      (I.estimate_absorption ~trials:10 ~rng:(Numerics.Rng.create 4)
         ~proposal:zeroed c ~from:0 ~into:1);
    Alcotest.fail "accepted a non-dominating proposal"
  with Invalid_argument _ -> ()

let test_boosted_proposal_is_stochastic () =
  let drm = Zeroconf.Drm.build Zeroconf.Params.figure2 ~n:4 ~r:2. in
  let proposal =
    I.boosted_proposal drm.Zeroconf.Drm.chain ~toward:drm.Zeroconf.Drm.error
  in
  (* Chain.create already validates rows; additionally every original
     edge keeps positive mass *)
  for i = 0 to C.size drm.Zeroconf.Drm.chain - 1 do
    Array.iter
      (fun j ->
        Alcotest.(check bool)
          (Printf.sprintf "edge %d->%d kept" i j)
          true
          (C.prob proposal i j > 0.))
      (fst (C.successors drm.Zeroconf.Drm.chain i))
  done

(* The flagship: verify Eq. 4 at depths unreachable by plain MC *)
let test_zeroconf_tail_verification () =
  let rng = Numerics.Rng.create 5 in
  List.iter
    (fun (p, n, r, depth) ->
      let v = Zeroconf.Rare.verify_error_probability ~trials:15_000 ~rng p ~n ~r in
      Alcotest.(check bool)
        (Printf.sprintf "covered at depth ~1e%d (analytic %.3e, CI [%.3e, %.3e])"
           depth v.Zeroconf.Rare.analytic
           v.Zeroconf.Rare.estimate.I.ci_lo v.Zeroconf.Rare.estimate.I.ci_hi)
        true v.Zeroconf.Rare.covered)
    [ ( Zeroconf.Params.v ~name:"d9"
          ~delay:(Dist.Families.shifted_exponential ~mass:0.99 ~rate:5. ~delay:0.2 ())
          ~q:0.1 ~probe_cost:1. ~error_cost:100.,
        4, 1., -9 );
      (Zeroconf.Params.figure2, 3, 1.5, -28);
      (Zeroconf.Params.figure2, 4, 2., -50) ]

let test_guards () =
  let c = rare 0.5 in
  Alcotest.check_raises "trials"
    (Invalid_argument "Importance.estimate_absorption: trials < 1") (fun () ->
      ignore
        (I.estimate_absorption ~trials:0 ~rng:(Numerics.Rng.create 6) ~proposal:c
           c ~from:0 ~into:1));
  Alcotest.check_raises "target not absorbing"
    (Invalid_argument "Importance.estimate_absorption: target not absorbing")
    (fun () ->
      ignore
        (I.estimate_absorption ~trials:10 ~rng:(Numerics.Rng.create 7) ~proposal:c
           c ~from:0 ~into:0))

let () =
  Alcotest.run "importance"
    [ ( "estimator",
        [ Alcotest.test_case "identity proposal" `Quick
            test_unbiased_with_identity_proposal;
          Alcotest.test_case "rare event" `Quick test_rare_event_with_boost;
          Alcotest.test_case "multistep route" `Quick test_multistep_rare_route ] );
      ( "proposals",
        [ Alcotest.test_case "absolute continuity" `Quick
            test_absolute_continuity_checked;
          Alcotest.test_case "boosted is stochastic" `Quick
            test_boosted_proposal_is_stochastic ] );
      ( "zeroconf tails",
        [ Alcotest.test_case "Eq. 4 verified deep" `Slow
            test_zeroconf_tail_verification;
          Alcotest.test_case "guards" `Quick test_guards ] ) ]
