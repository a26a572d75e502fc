module M = Numerics.Matrix
module C = Dtmc.Chain
module Ss = Dtmc.State_space

let chain_of arrays labels =
  C.create ~states:(Ss.of_labels labels) (M.of_arrays arrays)

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* two communicating pairs, one transient bridge:
   t -> a1 | b1; {a1, a2} cycle; {b1, b2} cycle *)
let two_cycles =
  chain_of
    [| [| 0.; 0.5; 0.; 0.5; 0. |];
       [| 0.; 0.; 1.; 0.; 0. |];
       [| 0.; 1.; 0.; 0.; 0. |];
       [| 0.; 0.; 0.; 0.; 1. |];
       [| 0.; 0.; 0.; 1.; 0. |] |]
    [ "t"; "a1"; "a2"; "b1"; "b2" ]

let test_tarjan_components () =
  let scc = Dtmc.Scc.tarjan two_cycles in
  Alcotest.(check int) "three components" 3 scc.Dtmc.Scc.count;
  (* a1/a2 together, b1/b2 together, t alone *)
  Alcotest.(check int) "a-pair together" scc.Dtmc.Scc.component.(1)
    scc.Dtmc.Scc.component.(2);
  Alcotest.(check int) "b-pair together" scc.Dtmc.Scc.component.(3)
    scc.Dtmc.Scc.component.(4);
  Alcotest.(check bool) "t separate" true
    (scc.Dtmc.Scc.component.(0) <> scc.Dtmc.Scc.component.(1)
    && scc.Dtmc.Scc.component.(0) <> scc.Dtmc.Scc.component.(3))

let test_bottom_components () =
  let bsccs = Dtmc.Scc.bottom_components two_cycles in
  Alcotest.(check int) "two BSCCs" 2 (List.length bsccs);
  let sorted = List.sort compare bsccs in
  Alcotest.(check (list (list int))) "the two cycles" [ [ 1; 2 ]; [ 3; 4 ] ] sorted

let test_bsccs_of_absorbing_chain_are_singletons () =
  let drm = Zeroconf.Drm.build Zeroconf.Params.figure2 ~n:4 ~r:2. in
  let bsccs = Dtmc.Scc.bottom_components drm.Zeroconf.Drm.chain in
  let sorted = List.sort compare bsccs in
  Alcotest.(check (list (list int))) "error and ok"
    [ [ drm.Zeroconf.Drm.error ]; [ drm.Zeroconf.Drm.ok ] ]
    sorted

let test_irreducibility () =
  let cycle = chain_of [| [| 0.; 1. |]; [| 1.; 0. |] |] [ "a"; "b" ] in
  Alcotest.(check bool) "cycle irreducible" true (Dtmc.Scc.is_irreducible cycle);
  Alcotest.(check bool) "two_cycles reducible" false
    (Dtmc.Scc.is_irreducible two_cycles)

let test_members () =
  let scc = Dtmc.Scc.tarjan two_cycles in
  let id = scc.Dtmc.Scc.component.(1) in
  Alcotest.(check (list int)) "members ascending" [ 1; 2 ]
    (Dtmc.Scc.members scc id)

let test_tarjan_deep_chain_no_stack_overflow () =
  (* a 20k-deep forward path would blow a recursive implementation; the
     adjacency entry point runs Tarjan's core without materializing the
     dense n x n transition matrices a Chain.t of this size needs *)
  let n = 20_000 in
  let successors i = if i < n - 1 then [ i + 1 ] else [] in
  let scc = Dtmc.Scc.tarjan_adjacency ~size:n ~successors in
  Alcotest.(check int) "all singleton components" n scc.Dtmc.Scc.count;
  (* reverse topological ids: the sink gets 0, the source n - 1 *)
  Alcotest.(check int) "sink first" 0 scc.Dtmc.Scc.component.(n - 1);
  Alcotest.(check int) "source last" (n - 1) scc.Dtmc.Scc.component.(0)

(* ---------------- hitting times ---------------- *)

let test_hitting_on_cycle () =
  (* deterministic cycle a -> b -> c -> a: hitting c takes 2 from a,
     1 from b, 0 from c *)
  let c =
    chain_of
      [| [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |]; [| 1.; 0.; 0. |] |]
      [ "a"; "b"; "c" ]
  in
  let h = Dtmc.Hitting.expected_steps c ~target:[ 2 ] in
  check_close "from a" 2. h.(0);
  check_close "from b" 1. h.(1);
  check_close "from c" 0. h.(2)

let test_hitting_geometric () =
  (* stay w.p. 0.75, move to the target w.p. 0.25; the target returns:
     hitting time is geometric with mean 4 even though nothing absorbs *)
  let c =
    chain_of [| [| 0.75; 0.25 |]; [| 1.; 0. |] |] [ "s"; "goal" ]
  in
  let h = Dtmc.Hitting.expected_steps c ~target:[ 1 ] in
  check_close "mean 4" 4. h.(0)

let test_hitting_infinite_when_avoidable () =
  (* the zeroconf chain can end in error, so ok is not a.s. reachable *)
  let drm = Zeroconf.Drm.build Zeroconf.Params.figure2 ~n:3 ~r:1.5 in
  let h = Dtmc.Hitting.expected_steps drm.Zeroconf.Drm.chain ~target:[ drm.Zeroconf.Drm.ok ] in
  Alcotest.(check bool) "infinite from start" true
    (h.(drm.Zeroconf.Drm.start) = infinity);
  check_close "zero on the target" 0. h.(drm.Zeroconf.Drm.ok)

let test_hitting_whole_absorbing_set_matches_expected_steps () =
  (* hitting {error, ok} is plain absorption: must agree with the
     dedicated absorbing-chain solver *)
  let drm = Zeroconf.Drm.build Zeroconf.Params.figure2 ~n:4 ~r:2. in
  let h =
    Dtmc.Hitting.expected_steps drm.Zeroconf.Drm.chain
      ~target:[ drm.Zeroconf.Drm.error; drm.Zeroconf.Drm.ok ]
  in
  check_close ~tol:1e-9 "agrees with Absorbing.expected_steps"
    (Dtmc.Absorbing.expected_steps drm.Zeroconf.Drm.chain
       ~from:drm.Zeroconf.Drm.start)
    h.(drm.Zeroconf.Drm.start)

let test_hitting_reward () =
  (* pay 3 per step until the goal: expected reward = 3 x hitting time *)
  let c = chain_of [| [| 0.5; 0.5 |]; [| 1.; 0. |] |] [ "s"; "goal" ] in
  let costs = M.create ~rows:2 ~cols:2 in
  M.set costs 0 0 3.;
  M.set costs 0 1 3.;
  M.set costs 1 0 7.;
  (* cost on edges out of the target must not matter *)
  let reward = Dtmc.Reward.create ~transition_rewards:costs c in
  let h = Dtmc.Hitting.expected_reward reward ~target:[ 1 ] in
  check_close "3 x mean 2" 6. h.(0)

let test_hitting_guards () =
  let c = chain_of [| [| 1. |] |] [ "only" ] in
  Alcotest.check_raises "empty target" (Invalid_argument "Hitting: empty target")
    (fun () -> ignore (Dtmc.Hitting.expected_steps c ~target:[]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Hitting: target index out of range") (fun () ->
      ignore (Dtmc.Hitting.expected_steps c ~target:[ 5 ]))

let () =
  Alcotest.run "scc_hitting"
    [ ( "tarjan",
        [ Alcotest.test_case "components" `Quick test_tarjan_components;
          Alcotest.test_case "bottom components" `Quick test_bottom_components;
          Alcotest.test_case "absorbing singletons" `Quick
            test_bsccs_of_absorbing_chain_are_singletons;
          Alcotest.test_case "irreducibility" `Quick test_irreducibility;
          Alcotest.test_case "members" `Quick test_members;
          Alcotest.test_case "deep chain (iterative)" `Quick
            test_tarjan_deep_chain_no_stack_overflow ] );
      ( "hitting",
        [ Alcotest.test_case "cycle" `Quick test_hitting_on_cycle;
          Alcotest.test_case "geometric" `Quick test_hitting_geometric;
          Alcotest.test_case "infinite when avoidable" `Quick
            test_hitting_infinite_when_avoidable;
          Alcotest.test_case "matches absorption" `Quick
            test_hitting_whole_absorbing_set_matches_expected_steps;
          Alcotest.test_case "rewards" `Quick test_hitting_reward;
          Alcotest.test_case "guards" `Quick test_hitting_guards ] ) ]
