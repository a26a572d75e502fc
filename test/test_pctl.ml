module P = Dtmc.Pctl
module C = Dtmc.Chain

let check_close ?(tol = 1e-12) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* fair gambler on 0..4 *)
let ruin =
  C.create
    ~labels:[| "broke"; "one"; "two"; "three"; "rich" |]
    (Array.init 5 (fun i ->
         if i = 0 || i = 4 then [ (i, 1.) ] else [ (i - 1, 0.5); (i + 1, 0.5) ]))

let labels = P.label_of_state ruin

(* the satisfying states of a state formula, one [holds] per state *)
let satisfaction chain labels formula =
  Array.init (C.size chain) (fun s -> P.holds chain labels ~from:s formula)

let test_atomic_and_boolean () =
  let sat = satisfaction ruin labels (P.Ap "two") in
  Alcotest.(check (array bool)) "exactly state 2"
    [| false; false; true; false; false |] sat;
  let sat = satisfaction ruin labels (P.Or (P.Ap "broke", P.Ap "rich")) in
  Alcotest.(check (array bool)) "the absorbing pair"
    [| true; false; false; false; true |] sat;
  let sat = satisfaction ruin labels (P.Not P.True) in
  Alcotest.(check (array bool)) "false everywhere"
    [| false; false; false; false; false |] sat

let test_eventually_matches_absorption () =
  (* P=? [F rich] from capital i is i/4 *)
  for i = 0 to 4 do
    check_close
      (Printf.sprintf "from %d" i)
      (float_of_int i /. 4.)
      (P.path_probability ruin labels ~from:i (P.Eventually (P.Ap "rich")))
  done

let test_until_with_constraint () =
  (* never dip to one capital before getting rich, from two:
     two -> three -> four path only: 0.5 * 0.5 ... but three can bounce
     back to two (allowed, it's not "one").  First-step analysis:
     x2 = 0.5 x3, x3 = 0.5 + 0.5 x2  =>  x2 = (0.5 * 0.5)/(1 - 0.25) = 1/3 *)
  check_close "constrained until" (1. /. 3.)
    (P.path_probability ruin labels ~from:2
       (P.Until (P.Not (P.Ap "one"), P.Ap "rich")))

let test_bounded_until () =
  (* reach rich within 2 steps from two: only two -> three -> rich, 1/4 *)
  check_close "2 steps" 0.25
    (P.path_probability ruin labels ~from:2
       (P.Bounded_eventually (P.Ap "rich", 2)));
  (* 0 steps: only if already there *)
  check_close "0 steps from two" 0.
    (P.path_probability ruin labels ~from:2 (P.Bounded_eventually (P.Ap "rich", 0)));
  check_close "0 steps from rich" 1.
    (P.path_probability ruin labels ~from:4 (P.Bounded_eventually (P.Ap "rich", 0)))

let test_next () =
  check_close "next from two" 0.5
    (P.path_probability ruin labels ~from:2 (P.Next (P.Ap "three")));
  check_close "next self-loop" 1.
    (P.path_probability ruin labels ~from:4 (P.Next (P.Ap "rich")))

let test_globally () =
  (* from rich, globally rich: 1.  From two, globally not broke =
     1 - P(F broke) = 1 - 1/2 *)
  check_close "absorbing globally" 1.
    (P.path_probability ruin labels ~from:4 (P.Globally (P.Ap "rich")));
  check_close "globally solvent" 0.5
    (P.path_probability ruin labels ~from:2 (P.Globally (P.Not (P.Ap "broke"))))

let test_prob_operator_thresholds () =
  (* states where P >= 0.5 of eventually rich: capital >= 2 *)
  let sat =
    satisfaction ruin labels (P.Prob (P.Ge, 0.5, P.Eventually (P.Ap "rich")))
  in
  Alcotest.(check (array bool)) "upper half"
    [| false; false; true; true; true |] sat;
  (* strict: P > 0.5 excludes capital 2 *)
  let sat =
    satisfaction ruin labels (P.Prob (P.Gt, 0.5, P.Eventually (P.Ap "rich")))
  in
  Alcotest.(check (array bool)) "strictly upper"
    [| false; false; false; true; true |] sat

let test_nested_formula () =
  (* "with probability >= 1/4, reach a state from which ruin is at most
     25% likely" — the inner set is {three, rich} *)
  let inner = P.Prob (P.Le, 0.25, P.Eventually (P.Ap "broke")) in
  let sat_inner = satisfaction ruin labels inner in
  Alcotest.(check (array bool)) "inner set"
    [| false; false; false; true; true |] sat_inner;
  Alcotest.(check bool) "outer holds from one" true
    (P.holds ruin labels ~from:1 (P.Prob (P.Ge, 0.25, P.Eventually inner)))

(* ---------------- zeroconf properties ---------------- *)

let drm = Zeroconf.Drm.build Zeroconf.Params.figure2 ~n:4 ~r:2.
let zc = drm.Zeroconf.Drm.chain
let zl = P.label_of_state zc

let test_zeroconf_error_reachability () =
  (* P=? [F error] must equal Eq. 4 *)
  check_close ~tol:1e-60 "matches Eq. 4"
    (Zeroconf.Reliability.error_probability Zeroconf.Params.figure2 ~n:4 ~r:2.)
    (P.path_probability zc zl ~from:drm.Zeroconf.Drm.start
       (P.Eventually (P.Ap "error")))

let test_zeroconf_first_try_clean () =
  (* configure without ever retrying: never return to start.
     P(X (not start U ok))-ish: from start, the clean path is the direct
     hop to ok with probability 1 - q *)
  let clean =
    P.path_probability zc zl ~from:drm.Zeroconf.Drm.start
      (P.Next (P.Ap "ok"))
  in
  check_close ~tol:1e-12 "one-shot success is 1 - q"
    (1. -. Zeroconf.Params.figure2.Zeroconf.Params.q)
    clean

let test_zeroconf_bounded_configuration () =
  (* the DRM reaches ok within 1 step with prob 1-q, and P grows with
     the horizon towards 1 - E(n,r) *)
  let p1 =
    P.path_probability zc zl ~from:drm.Zeroconf.Drm.start
      (P.Bounded_eventually (P.Ap "ok", 1))
  in
  let p10 =
    P.path_probability zc zl ~from:drm.Zeroconf.Drm.start
      (P.Bounded_eventually (P.Ap "ok", 10))
  in
  let p_inf =
    P.path_probability zc zl ~from:drm.Zeroconf.Drm.start
      (P.Eventually (P.Ap "ok"))
  in
  Alcotest.(check bool) "monotone in horizon" true (p1 <= p10 && p10 <= p_inf);
  check_close ~tol:1e-12 "limit is the reliability"
    (1. -. Zeroconf.Reliability.error_probability Zeroconf.Params.figure2 ~n:4 ~r:2.)
    p_inf

let test_zeroconf_safety_formula () =
  (* the paper's reliability claim as a PCTL judgement: the chance of
     an address collision is below 1e-40 *)
  Alcotest.(check bool) "P < 1e-40 [F error]" true
    (P.holds zc zl ~from:drm.Zeroconf.Drm.start
       (P.Prob (P.Lt, 1e-40, P.Eventually (P.Ap "error"))))

(* ---------------- reward operator ---------------- *)

(* R=? [F target]: the expected reward accumulated until first reaching
   the target, from the first-passage oracle *)
let test_reward_to_reach_is_eq3 () =
  (* R=? [F (error | ok)] with the DRM's cost rewards IS Eq. 3 *)
  let v =
    Oracle.expected_reward drm.Zeroconf.Drm.reward
      ~target:[ drm.Zeroconf.Drm.error; drm.Zeroconf.Drm.ok ]
  in
  check_close ~tol:1e-9 "matches Eq. 3"
    (Zeroconf.Cost.mean Zeroconf.Params.figure2 ~n:4 ~r:2.)
    v.(drm.Zeroconf.Drm.start)

let test_reward_infinite_when_avoidable () =
  (* reward to reach ok alone is infinite: error is possible *)
  let v = Oracle.expected_reward drm.Zeroconf.Drm.reward ~target:[ drm.Zeroconf.Drm.ok ] in
  Alcotest.(check bool) "infinite" true (v.(drm.Zeroconf.Drm.start) = infinity)

let () =
  Alcotest.run "pctl"
    [ ( "state formulas",
        [ Alcotest.test_case "atomic/boolean" `Quick test_atomic_and_boolean;
          Alcotest.test_case "thresholds" `Quick test_prob_operator_thresholds;
          Alcotest.test_case "nesting" `Quick test_nested_formula ] );
      ( "path formulas",
        [ Alcotest.test_case "eventually" `Quick test_eventually_matches_absorption;
          Alcotest.test_case "constrained until" `Quick test_until_with_constraint;
          Alcotest.test_case "bounded" `Quick test_bounded_until;
          Alcotest.test_case "next" `Quick test_next;
          Alcotest.test_case "globally" `Quick test_globally ] );
      ( "zeroconf",
        [ Alcotest.test_case "error reachability = Eq. 4" `Quick
            test_zeroconf_error_reachability;
          Alcotest.test_case "one-shot success" `Quick test_zeroconf_first_try_clean;
          Alcotest.test_case "bounded configuration" `Quick
            test_zeroconf_bounded_configuration;
          Alcotest.test_case "safety judgement" `Quick test_zeroconf_safety_formula ] );
      ( "reward operator",
        [ Alcotest.test_case "R=? [F done] = Eq. 3" `Quick test_reward_to_reach_is_eq3;
          Alcotest.test_case "infinite when avoidable" `Quick
            test_reward_infinite_when_avoidable ] ) ]
