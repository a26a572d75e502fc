module C = Dtmc.Chain

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* ---------------- state spaces ---------------- *)

let test_state_space () =
  let c =
    C.create ~labels:[| "a"; "b"; "c" |]
      [| [ (1, 1.) ]; [ (2, 1.) ]; [ (2, 1.) ] |]
  in
  Alcotest.(check int) "size" 3 (C.size c);
  Alcotest.(check string) "label" "b" (C.label c 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Chain.label: index out of range") (fun () ->
      ignore (C.label c 3))

let test_state_space_guards () =
  Alcotest.check_raises "empty" (Invalid_argument "Chain.create: no states")
    (fun () -> ignore (C.create ~labels:[||] [||]));
  Alcotest.check_raises "empty label" (Invalid_argument "Chain.create: empty label")
    (fun () -> ignore (C.create ~labels:[| "" |] [| [ (0, 1.) ] |]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Chain.create: duplicate label a") (fun () ->
      ignore (C.create ~labels:[| "a"; "a" |] [| [ (0, 1.) ]; [ (1, 1.) ] |]))

(* ---------------- chain construction ---------------- *)

let two_state p q =
  (* a -> b with prob p, b -> a with prob q *)
  C.create
    ~labels:[| "a"; "b" |]
    (Rows.of_dense [| [| 1. -. p; p |]; [| q; 1. -. q |] |])

let test_chain_validation () =
  let labels = [| "a"; "b" |] in
  Alcotest.check_raises "rows must sum to 1"
    (Invalid_argument "Chain.create: row 0 (a) sums to 0.5") (fun () ->
      ignore (C.create ~labels (Rows.of_dense [| [| 0.5; 0. |]; [| 0.; 1. |] |])));
  (try
     ignore (C.create ~labels (Rows.of_dense [| [| -0.1; 1.1 |]; [| 0.; 1. |] |]));
     Alcotest.fail "negative accepted"
   with Invalid_argument _ -> ())

let test_chain_renormalizes_rounding () =
  let labels = [| "a"; "b" |] in
  let eps = 1e-12 in
  let c =
    C.create ~labels
      (Rows.of_dense [| [| 0.5 +. eps; 0.5 |]; [| 0.; 1. |] |])
  in
  check_close "row renormalized" 1.
    (Numerics.Safe_float.sum (snd (C.successors c 0)))

let test_chain_accessors () =
  let c = two_state 0.3 0.7 in
  check_close "prob" 0.3 (C.prob c 0 1);
  check_close "prob b -> a" 0.7 (C.prob c 1 0);
  Alcotest.(check (pair (array int) (array (float 1e-12))))
    "successors" ([| 0; 1 |], [| 0.7; 0.3 |]) (C.successors c 0)

let test_absorbing_detection () =
  let c =
    C.create
      ~labels:[| "t"; "a" |]
      (Rows.of_dense [| [| 0.5; 0.5 |]; [| 0.; 1. |] |])
  in
  Alcotest.(check bool) "t not absorbing" false (C.is_absorbing c 0);
  Alcotest.(check bool) "a absorbing" true (C.is_absorbing c 1);
  Alcotest.(check (list int)) "absorbing states" [ 1 ] (C.absorbing_states c)

(* ---------------- gambler's ruin: hand-computed truths ----------- *)

(* states 0..4; 0 and 4 absorbing; fair coin *)
let ruin =
  C.create
    ~labels:[| "0"; "1"; "2"; "3"; "4" |]
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
      ~labels:[| "t"; "a" |]
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
      ~labels:[| "t"; "a" |]
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
      ~labels:[| "s"; "done" |]
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
      ~labels:[| "s"; "done" |]
      (Rows.of_dense [| [| 0.9; 0.1 |]; [| 0.; 1. |] |])
  in
  let r = Dtmc.Reward.create ~transition_rewards:[| [ (0, 1.); (1, 1.) ]; [] |] c in
  check_close ~tol:1e-6 "geometric variance" 90.
    (Dtmc.Absorbing.variance_total_reward r ~from:0)

let () =
  Alcotest.run "dtmc"
    [ ( "state space",
        [ Alcotest.test_case "basics" `Quick test_state_space;
          Alcotest.test_case "guards" `Quick test_state_space_guards ] );
      ( "chain",
        [ Alcotest.test_case "validation" `Quick test_chain_validation;
          Alcotest.test_case "renormalization" `Quick test_chain_renormalizes_rounding;
          Alcotest.test_case "accessors" `Quick test_chain_accessors;
          Alcotest.test_case "absorbing detection" `Quick test_absorbing_detection ] );
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
          Alcotest.test_case "variance geometric" `Quick test_variance_geometric ] ) ]
