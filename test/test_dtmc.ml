module C = Dtmc.Chain
module Ss = Dtmc.State_space

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* ---------------- state spaces ---------------- *)

let test_state_space () =
  let s = Ss.of_labels [ "a"; "b"; "c" ] in
  Alcotest.(check int) "size" 3 (Ss.size s);
  Alcotest.(check string) "label" "b" (Ss.label s 1);
  Alcotest.(check int) "index" 2 (Ss.index s "c");
  Alcotest.(check bool) "mem" true (Ss.mem s "a");
  Alcotest.(check bool) "not mem" false (Ss.mem s "z");
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Ss.index s "z"))

let test_state_space_guards () =
  Alcotest.check_raises "empty" (Invalid_argument "State_space.of_labels: empty")
    (fun () -> ignore (Ss.of_labels []));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "State_space.of_labels: duplicate label a") (fun () ->
      ignore (Ss.of_labels [ "a"; "a" ]))

(* ---------------- chain construction ---------------- *)

let two_state p q =
  (* a -> b with prob p, b -> a with prob q *)
  C.create
    ~states:(Ss.of_labels [ "a"; "b" ])
    (Rows.of_dense [| [| 1. -. p; p |]; [| q; 1. -. q |] |])

let test_chain_validation () =
  let s = Ss.of_labels [ "a"; "b" ] in
  Alcotest.check_raises "rows must sum to 1"
    (Invalid_argument "Chain.create: row 0 (a) sums to 0.5") (fun () ->
      ignore (C.create ~states:s (Rows.of_dense [| [| 0.5; 0. |]; [| 0.; 1. |] |])));
  (try
     ignore (C.create ~states:s (Rows.of_dense [| [| -0.1; 1.1 |]; [| 0.; 1. |] |]));
     Alcotest.fail "negative accepted"
   with Invalid_argument _ -> ())

let test_chain_renormalizes_rounding () =
  let s = Ss.of_labels [ "a"; "b" ] in
  let eps = 1e-12 in
  let c =
    C.create ~states:s
      (Rows.of_dense [| [| 0.5 +. eps; 0.5 |]; [| 0.; 1. |] |])
  in
  check_close "row renormalized" 1.
    (Numerics.Safe_float.sum (snd (C.successors c 0)))

let test_chain_accessors () =
  let c = two_state 0.3 0.7 in
  check_close "prob" 0.3 (C.prob c 0 1);
  check_close "prob by label" 0.7 (C.prob_by_label c "b" "a");
  Alcotest.(check (pair (array int) (array (float 1e-12))))
    "successors" ([| 0; 1 |], [| 0.7; 0.3 |]) (C.successors c 0)

let test_absorbing_detection () =
  let c =
    C.create
      ~states:(Ss.of_labels [ "t"; "a" ])
      (Rows.of_dense [| [| 0.5; 0.5 |]; [| 0.; 1. |] |])
  in
  Alcotest.(check bool) "t not absorbing" false (C.is_absorbing c 0);
  Alcotest.(check bool) "a absorbing" true (C.is_absorbing c 1);
  Alcotest.(check (list int)) "absorbing states" [ 1 ] (C.absorbing_states c);
  Alcotest.(check (list int)) "transient states" [ 0 ] (C.transient_states c)

let test_reachable () =
  let c =
    C.create
      ~states:(Ss.of_labels [ "a"; "b"; "c" ])
      (Rows.of_dense
         [| [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |]; [| 0.; 0.; 1. |] |])
  in
  let r = C.reachable c ~from:0 in
  Alcotest.(check (array bool)) "forward chain" [| true; true; true |] r;
  let r = C.reachable c ~from:2 in
  Alcotest.(check (array bool)) "absorbing sees only itself" [| false; false; true |] r

(* ---------------- gambler's ruin: hand-computed truths ----------- *)

(* states 0..4; 0 and 4 absorbing; fair coin *)
let ruin =
  C.create
    ~states:(Ss.of_labels [ "0"; "1"; "2"; "3"; "4" ])
    (Array.init 5 (fun i ->
         if i = 0 || i = 4 then [ (i, 1.) ] else [ (i - 1, 0.5); (i + 1, 0.5) ]))

let test_ruin_absorption_probabilities () =
  (* P(win from i) = i/4 for a fair game *)
  for i = 1 to 3 do
    check_close
      (Printf.sprintf "win prob from %d" i)
      (float_of_int i /. 4.)
      (Dtmc.Absorbing.absorption_probability ruin ~from:i ~into:4)
  done;
  check_close "already won" 1.
    (Dtmc.Absorbing.absorption_probability ruin ~from:4 ~into:4);
  check_close "already lost" 0.
    (Dtmc.Absorbing.absorption_probability ruin ~from:0 ~into:4)

let test_ruin_expected_steps () =
  (* E[steps from i] = i (4 - i) for the fair game *)
  for i = 0 to 4 do
    check_close
      (Printf.sprintf "steps from %d" i)
      (float_of_int (i * (4 - i)))
      (Dtmc.Absorbing.expected_steps ruin ~from:i)
  done

let test_absorption_row_sums_one () =
  for i = 0 to 4 do
    check_close "row sums to 1" 1.
      (Dtmc.Absorbing.absorption_probability ruin ~from:i ~into:0
      +. Dtmc.Absorbing.absorption_probability ruin ~from:i ~into:4)
  done

let test_decompose_rejects_non_absorbing () =
  let c = two_state 0.3 0.7 in
  Alcotest.check_raises "no absorbing states"
    (Invalid_argument "Absorbing: chain has no absorbing state")
    (fun () -> ignore (Dtmc.Absorbing.expected_steps c ~from:0))

(* ---------------- rewards ---------------- *)

let simple_reward () =
  (* t -> a with prob 1, cost 7 *)
  let c =
    C.create
      ~states:(Ss.of_labels [ "t"; "a" ])
      (Rows.of_dense [| [| 0.; 1. |]; [| 0.; 1. |] |])
  in
  Dtmc.Reward.create ~transition_rewards:[| [ (1, 7.) ]; [] |] c

let test_reward_total () =
  let r = simple_reward () in
  check_close "one-step expected" 7. (Dtmc.Reward.one_step_expected r).(0);
  check_close "total accumulated" 7.
    (Dtmc.Absorbing.expected_total_reward r ~from:0)

let test_reward_validation () =
  let c =
    C.create
      ~states:(Ss.of_labels [ "t"; "a" ])
      (Rows.of_dense [| [| 0.; 1. |]; [| 0.; 1. |] |])
  in
  (* cost on a zero-probability edge *)
  (try
     ignore (Dtmc.Reward.create ~transition_rewards:[| [ (0, 3.) ]; [] |] c);
     Alcotest.fail "accepted cost on zero-prob edge"
   with Invalid_argument _ -> ());
  (* absorbing self-loop cost would diverge *)
  try
    ignore (Dtmc.Reward.create ~transition_rewards:[| []; [ (1, 1.) ] |] c);
    Alcotest.fail "accepted absorbing self-loop cost"
  with Invalid_argument _ -> ()

let test_geometric_accumulation () =
  (* stay with prob 0.9 paying 1 per step, leave with prob 0.1:
     expected steps 10, each costing 1 -> total 10 *)
  let c =
    C.create
      ~states:(Ss.of_labels [ "s"; "done" ])
      (Rows.of_dense [| [| 0.9; 0.1 |]; [| 0.; 1. |] |])
  in
  let r = Dtmc.Reward.create ~transition_rewards:[| [ (0, 1.); (1, 1.) ]; [] |] c in
  check_close "geometric total" 10. (Dtmc.Absorbing.expected_total_reward r ~from:0)

let test_variance_deterministic_is_zero () =
  let r = simple_reward () in
  check_close "no randomness, no variance" 0.
    (Dtmc.Absorbing.variance_total_reward r ~from:0)

let test_variance_geometric () =
  (* total cost = number of steps, geometric with p = 0.1:
     Var = (1 - p) / p^2 = 90 *)
  let c =
    C.create
      ~states:(Ss.of_labels [ "s"; "done" ])
      (Rows.of_dense [| [| 0.9; 0.1 |]; [| 0.; 1. |] |])
  in
  let r = Dtmc.Reward.create ~transition_rewards:[| [ (0, 1.); (1, 1.) ]; [] |] c in
  check_close ~tol:1e-6 "geometric variance" 90.
    (Dtmc.Absorbing.variance_total_reward r ~from:0)

(* ---------------- builder ---------------- *)

let test_builder_roundtrip () =
  let b = Dtmc.Builder.create () in
  Dtmc.Builder.add_edge b ~src:"s" ~dst:"t" ~prob:0.4 ~cost:2.;
  Dtmc.Builder.add_edge b ~src:"s" ~dst:"u" ~prob:0.6;
  Dtmc.Builder.add_edge b ~src:"t" ~dst:"u" ~prob:1.;
  let chain, reward = Dtmc.Builder.build b in
  Alcotest.(check int) "three states" 3 (C.size chain);
  check_close "prob preserved" 0.4 (C.prob_by_label chain "s" "t");
  Alcotest.(check bool) "sink made absorbing" true
    (C.is_absorbing chain (Ss.index (C.states chain) "u"));
  check_close "cost preserved" 2.
    (Dtmc.Reward.transition reward
       (Ss.index (C.states chain) "s")
       (Ss.index (C.states chain) "t"))

let test_builder_accumulates_duplicate_edges () =
  let b = Dtmc.Builder.create () in
  Dtmc.Builder.add_edge b ~src:"s" ~dst:"t" ~prob:0.5;
  Dtmc.Builder.add_edge b ~src:"s" ~dst:"t" ~prob:0.5;
  let chain, _ = Dtmc.Builder.build b in
  check_close "accumulated" 1. (C.prob_by_label chain "s" "t")

let test_builder_rejects_bad_rows () =
  let b = Dtmc.Builder.create () in
  Dtmc.Builder.add_edge b ~src:"s" ~dst:"t" ~prob:0.5;
  try
    ignore (Dtmc.Builder.build b);
    Alcotest.fail "row summing to 0.5 accepted"
  with Invalid_argument _ -> ()

let () =
  Alcotest.run "dtmc"
    [ ( "state space",
        [ Alcotest.test_case "basics" `Quick test_state_space;
          Alcotest.test_case "guards" `Quick test_state_space_guards ] );
      ( "chain",
        [ Alcotest.test_case "validation" `Quick test_chain_validation;
          Alcotest.test_case "renormalization" `Quick test_chain_renormalizes_rounding;
          Alcotest.test_case "accessors" `Quick test_chain_accessors;
          Alcotest.test_case "absorbing detection" `Quick test_absorbing_detection;
          Alcotest.test_case "reachability" `Quick test_reachable ] );
      ( "gambler's ruin",
        [ Alcotest.test_case "absorption probs" `Quick test_ruin_absorption_probabilities;
          Alcotest.test_case "expected steps" `Quick test_ruin_expected_steps;
          Alcotest.test_case "row sums" `Quick test_absorption_row_sums_one;
          Alcotest.test_case "rejects non-absorbing" `Quick
            test_decompose_rejects_non_absorbing ] );
      ( "rewards",
        [ Alcotest.test_case "total" `Quick test_reward_total;
          Alcotest.test_case "validation" `Quick test_reward_validation;
          Alcotest.test_case "geometric" `Quick test_geometric_accumulation;
          Alcotest.test_case "variance deterministic" `Quick
            test_variance_deterministic_is_zero;
          Alcotest.test_case "variance geometric" `Quick test_variance_geometric ] );
      ( "builder",
        [ Alcotest.test_case "roundtrip" `Quick test_builder_roundtrip;
          Alcotest.test_case "duplicate edges" `Quick
            test_builder_accumulates_duplicate_edges;
          Alcotest.test_case "bad rows" `Quick test_builder_rejects_bad_rows ] ) ]
