module Mdp = Dtmc.Mdp

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let tr dst prob cost = { Mdp.dst; prob; cost }

(* Deterministic two-road choice: state 0 picks the cheap (5) or the
   expensive (9) road to the absorbing state 1. *)
let two_roads =
  Mdp.create ~num_states:2 ~actions:(function
    | 0 -> [ ("cheap", [ tr 1 1. 5. ]); ("dear", [ tr 1 1. 9. ]) ]
    | _ -> [])

(* a policy names an action by its index in the state's action list *)
let check_action msg expected actual = Alcotest.(check int) msg expected actual

let test_picks_cheaper_road () =
  let s = Mdp.value_iteration two_roads in
  check_close "value" 5. s.Mdp.values.(0);
  check_action "action cheap" 0 s.Mdp.policy.(0);
  Alcotest.(check int) "absorbing has no action" (-1) s.Mdp.policy.(1)

let test_lookahead_beats_greedy_first_step () =
  (* a: pay 1 now but land in a state that costs 10 more;
     b: pay 3 now and finish.  One-step greedy prefers a; the optimal
     policy must prefer b. *)
  let m =
    Mdp.create ~num_states:3 ~actions:(function
      | 0 -> [ ("a", [ tr 1 1. 1. ]); ("b", [ tr 2 1. 3. ]) ]
      | 1 -> [ ("slog", [ tr 2 1. 10. ]) ]
      | _ -> [])
  in
  let s = Mdp.value_iteration m in
  check_close "optimal value" 3. s.Mdp.values.(0);
  check_action "chooses b" 1 s.Mdp.policy.(0)

let test_stochastic_restart_loop () =
  (* pay 2 to try; success 0.25, else back to the start: expected
     total = 2 / 0.25 = 8 *)
  let m =
    Mdp.create ~num_states:2 ~actions:(function
      | 0 -> [ ("try", [ tr 1 0.25 2.; tr 0 0.75 2. ]) ]
      | _ -> [])
  in
  let s = Mdp.value_iteration m in
  check_close ~tol:1e-8 "geometric cost" 8. s.Mdp.values.(0)

let test_chooses_between_risky_and_safe () =
  (* safe: cost 4, done.  risky: cost 1, success 0.5, else retry.
     risky's total = 1/0.5 = 2 < 4: choose risky.  With success 0.2,
     total = 5 > 4: choose safe. *)
  let build p_succ =
    Mdp.create ~num_states:2 ~actions:(function
      | 0 ->
          [ ("safe", [ tr 1 1. 4. ]);
            ("risky", [ tr 1 p_succ 1.; tr 0 (1. -. p_succ) 1. ]) ]
      | _ -> [])
  in
  let s1 = Mdp.value_iteration (build 0.5) in
  check_action "risky wins at 0.5" 1 s1.Mdp.policy.(0);
  check_close "value 2" 2. s1.Mdp.values.(0);
  let s2 = Mdp.value_iteration (build 0.2) in
  check_action "safe wins at 0.2" 0 s2.Mdp.policy.(0);
  check_close "value 4" 4. s2.Mdp.values.(0)

let test_evaluate_policy_exact () =
  let m =
    Mdp.create ~num_states:2 ~actions:(function
      | 0 -> [ ("loop", [ tr 1 0.1 1.; tr 0 0.9 1. ]) ]
      | _ -> [])
  in
  let v = Mdp.evaluate_policy m ~policy:[| 0; -1 |] in
  check_close "exact 10" 10. v.(0)

let test_policy_iteration_agrees () =
  let actions = function
    | 0 -> [ ("l", [ tr 1 0.7 2.; tr 2 0.3 1. ]); ("r", [ tr 2 1. 2.5 ]) ]
    | 1 -> [ ("go", [ tr 3 0.5 1.; tr 0 0.5 1. ]) ]
    | 2 -> [ ("go", [ tr 3 1. 2. ]) ]
    | _ -> []
  in
  let m = Mdp.create ~num_states:4 ~actions in
  let vi = Mdp.value_iteration m in
  let pi_values, pi_policy = Oracle.policy_iteration ~num_states:4 ~actions m in
  Array.iteri
    (fun s v -> check_close ~tol:1e-8 (Printf.sprintf "state %d" s) v pi_values.(s))
    vi.Mdp.values;
  Alcotest.(check (array int)) "same policy" vi.Mdp.policy pi_policy

let test_gamblers_choice () =
  (* states 0..4 of capital; goal: reach 4 with minimal expected number
     of fair-coin bets; allowed stakes: 1, or all-in (min(capital,
     4 - capital)).  Bold play reaches the goal in fewer expected steps
     than timid play from capital 1 (1 step vs 3 with absorption at 0
     counting as termination too).  We only assert consistency: VI = PI
     and values are finite and positive for interior states. *)
  let stake_targets capital stake = (capital + stake, capital - stake) in
  let actions s =
    if s = 0 || s = 4 then []
    else
      let actions = ref [] in
      List.iter
        (fun stake ->
          if stake >= 1 && stake <= min s (4 - s) then begin
            let win, lose = stake_targets s stake in
            actions :=
              ( Printf.sprintf "bet%d" stake,
                [ tr win 0.5 1.; tr lose 0.5 1. ] )
              :: !actions
          end)
        [ 1; 2 ];
      List.rev !actions
  in
  let m = Mdp.create ~num_states:5 ~actions in
  let vi = Mdp.value_iteration m in
  let pi_values, _ = Oracle.policy_iteration ~num_states:5 ~actions m in
  for s = 1 to 3 do
    Alcotest.(check bool) "finite positive" true
      (Float.is_finite vi.Mdp.values.(s) && vi.Mdp.values.(s) > 0.);
    check_close ~tol:1e-8 (Printf.sprintf "vi = pi at %d" s) vi.Mdp.values.(s)
      pi_values.(s)
  done;
  (* at capital 2, the all-in bet ends the game in exactly one step *)
  check_close ~tol:1e-8 "all-in from 2" 1. vi.Mdp.values.(2);
  check_action "bold at 2: bet2" 1 vi.Mdp.policy.(2)

let test_validation () =
  (try
     ignore
       (Mdp.create ~num_states:2 ~actions:(function
         | 0 -> [ ("bad", [ tr 1 0.5 0. ]) ]
         | _ -> []));
     Alcotest.fail "accepted sub-stochastic action"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Mdp.create ~num_states:2 ~actions:(function
         | 0 -> [ ("bad", [ tr 5 1. 0. ]) ]
         | _ -> []));
     Alcotest.fail "accepted out-of-range destination"
   with Invalid_argument _ -> ());
  try
    ignore
      (Mdp.create ~num_states:1 ~actions:(fun _ -> [ ("empty", []) ]));
    Alcotest.fail "accepted empty action"
  with Invalid_argument _ -> ()

let test_improper_policy_detected () =
  (* an action that loops forever: evaluating it must fail, not hang *)
  let m =
    Mdp.create ~num_states:2 ~actions:(function
      | 0 -> [ ("spin", [ tr 0 1. 1. ]) ]
      | _ -> [])
  in
  try
    ignore (Mdp.evaluate_policy m ~policy:[| 0; -1 |]);
    Alcotest.fail "evaluated an improper policy"
  with Failure _ -> ()

let () =
  Alcotest.run "mdp"
    [ ( "optimality",
        [ Alcotest.test_case "two roads" `Quick test_picks_cheaper_road;
          Alcotest.test_case "lookahead" `Quick test_lookahead_beats_greedy_first_step;
          Alcotest.test_case "restart loop" `Quick test_stochastic_restart_loop;
          Alcotest.test_case "risk switch" `Quick test_chooses_between_risky_and_safe ] );
      ( "algorithms",
        [ Alcotest.test_case "policy evaluation" `Quick test_evaluate_policy_exact;
          Alcotest.test_case "policy iteration = value iteration" `Quick
            test_policy_iteration_agrees;
          Alcotest.test_case "gambler's choice" `Quick test_gamblers_choice ] );
      ( "robustness",
        [ Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "improper policy" `Quick test_improper_policy_detected ] ) ]
