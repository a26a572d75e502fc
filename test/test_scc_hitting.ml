module C = Dtmc.Chain

let chain_of arrays labels =
  C.create ~labels (Rows.of_dense arrays)

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* ---------------- hitting times ---------------- *)

(* first passage, from the test-side oracle *)

let test_hitting_on_cycle () =
  (* deterministic cycle a -> b -> c -> a: hitting c takes 2 from a,
     1 from b, 0 from c *)
  let c =
    chain_of
      [| [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |]; [| 1.; 0.; 0. |] |]
      [| "a"; "b"; "c" |]
  in
  let h = Oracle.expected_steps c ~target:[ 2 ] in
  check_close "from a" 2. h.(0);
  check_close "from b" 1. h.(1);
  check_close "from c" 0. h.(2)

let test_hitting_geometric () =
  (* stay w.p. 0.75, move to the target w.p. 0.25; the target returns:
     hitting time is geometric with mean 4 even though nothing absorbs *)
  let c =
    chain_of [| [| 0.75; 0.25 |]; [| 1.; 0. |] |] [| "s"; "goal" |]
  in
  let h = Oracle.expected_steps c ~target:[ 1 ] in
  check_close "mean 4" 4. h.(0)

let test_hitting_infinite_when_avoidable () =
  (* the zeroconf chain can end in error, so ok is not a.s. reachable *)
  let drm = Zeroconf.Drm.build Zeroconf.Params.figure2 ~n:3 ~r:1.5 in
  let h = Oracle.expected_steps drm.Zeroconf.Drm.chain ~target:[ drm.Zeroconf.Drm.ok ] in
  Alcotest.(check bool) "infinite from start" true
    (h.(drm.Zeroconf.Drm.start) = infinity);
  check_close "zero on the target" 0. h.(drm.Zeroconf.Drm.ok)

let test_hitting_whole_absorbing_set_matches_expected_steps () =
  (* hitting {error, ok} is plain absorption: must agree with the
     dedicated absorbing-chain solver *)
  let drm = Zeroconf.Drm.build Zeroconf.Params.figure2 ~n:4 ~r:2. in
  let h =
    Oracle.expected_steps drm.Zeroconf.Drm.chain
      ~target:[ drm.Zeroconf.Drm.error; drm.Zeroconf.Drm.ok ]
  in
  check_close ~tol:1e-9 "agrees with Absorbing.expected_steps"
    (Dtmc.Absorbing.expected_steps drm.Zeroconf.Drm.chain
       ~from:drm.Zeroconf.Drm.start)
    h.(drm.Zeroconf.Drm.start)

let test_hitting_reward () =
  (* pay 3 per step until the goal: expected reward = 3 x hitting time *)
  let c = chain_of [| [| 0.5; 0.5 |]; [| 1.; 0. |] |] [| "s"; "goal" |] in
  (* cost on edges out of the target must not matter *)
  let reward =
    Dtmc.Reward.create ~transition_rewards:[| [ (0, 3.); (1, 3.) ]; [ (0, 7.) ] |] c
  in
  let h = Oracle.expected_reward reward ~target:[ 1 ] in
  check_close "3 x mean 2" 6. h.(0)

let test_hitting_guards () =
  let c = chain_of [| [| 1. |] |] [| "only" |] in
  Alcotest.check_raises "empty target" (Invalid_argument "Oracle.first_passage: empty target")
    (fun () -> ignore (Oracle.expected_steps c ~target:[]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Oracle.first_passage: target index out of range") (fun () ->
      ignore (Oracle.expected_steps c ~target:[ 5 ]))

let () =
  Alcotest.run "scc_hitting"
    [ ( "hitting",
        [ Alcotest.test_case "cycle" `Quick test_hitting_on_cycle;
          Alcotest.test_case "geometric" `Quick test_hitting_geometric;
          Alcotest.test_case "infinite when avoidable" `Quick
            test_hitting_infinite_when_avoidable;
          Alcotest.test_case "matches absorption" `Quick
            test_hitting_whole_absorbing_set_matches_expected_steps;
          Alcotest.test_case "rewards" `Quick test_hitting_reward;
          Alcotest.test_case "guards" `Quick test_hitting_guards ] ) ]
