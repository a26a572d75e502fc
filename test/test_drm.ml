module Drm = Zeroconf.Drm
module Params = Zeroconf.Params
module C = Dtmc.Chain

let check_rel ?(rtol = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.12g vs %.12g" msg expected actual)
    true
    (Oracle.approx_eq ~rtol expected actual)

let fig2 = Params.figure2

let test_state_space_layout () =
  (* the paper's table: start, 1st, ..., nth, error, ok *)
  let drm = Drm.build fig2 ~n:4 ~r:2. in
  let c = drm.Drm.chain in
  Alcotest.(check int) "n + 3 states" 7 (C.size c);
  Alcotest.(check (array string)) "labels in paper order"
    [| "start"; "1st"; "2nd"; "3rd"; "4th"; "error"; "ok" |]
    (Array.init (C.size c) (C.label c));
  Alcotest.(check int) "start is row 1" 0 drm.Drm.start;
  Alcotest.(check int) "error is row n+2" 5 drm.Drm.error;
  Alcotest.(check int) "ok is row n+3" 6 drm.Drm.ok

let test_ordinal_labels_beyond_ten () =
  let drm = Drm.build fig2 ~n:23 ~r:0.3 in
  let c = drm.Drm.chain in
  Alcotest.(check (list string)) "11th..13th, 21st..23rd"
    [ "11th"; "12th"; "13th"; "21st"; "22nd"; "23rd" ]
    (List.map (C.label c) [ 11; 12; 13; 21; 22; 23 ])

let test_transition_probabilities_match_paper () =
  let n = 3 and r = 1.5 in
  let drm = Drm.build fig2 ~n ~r in
  let c = drm.Drm.chain in
  let start = drm.Drm.start in
  check_rel "start -> 1st is q" fig2.Params.q (C.prob c start 1);
  check_rel "start -> ok is 1 - q" (1. -. fig2.Params.q) (C.prob c start drm.Drm.ok);
  for i = 1 to n do
    let p_i = Zeroconf.Probes.no_answer fig2 ~i ~r in
    let dst = if i = n then drm.Drm.error else i + 1 in
    check_rel (Printf.sprintf "%s forward" (C.label c i)) p_i (C.prob c i dst);
    check_rel
      (Printf.sprintf "%s back to start" (C.label c i))
      (1. -. p_i) (C.prob c i start)
  done

let test_costs_match_paper () =
  let n = 3 and r = 1.5 in
  let drm = Drm.build fig2 ~n ~r in
  let reward = drm.Drm.reward in
  let start = drm.Drm.start in
  let step = r +. fig2.Params.probe_cost in
  check_rel "start -> ok costs n (r+c)" (float_of_int n *. step)
    (Dtmc.Reward.transition reward start drm.Drm.ok);
  check_rel "start -> 1st costs r+c" step (Dtmc.Reward.transition reward start 1);
  check_rel "nth -> error costs E" fig2.Params.error_cost
    (Dtmc.Reward.transition reward 3 drm.Drm.error);
  check_rel "abort transition is free" 0. (Dtmc.Reward.transition reward 2 start)

(* Every row against the Sec. 4.1 table, as (column, probability, cost)
   in column order: start = 0, probe i = i, error = n + 1, ok = n + 2,
   with the zero-probability hops absent (q = 0 drops start -> 1st,
   r = 0 drops every abort). *)
let test_rows_match_table () =
  let table (p : Params.t) ~n ~r i =
    let step = r +. p.probe_cost in
    let keep = List.filter (fun (_, prob, _) -> prob > 0.) in
    if i = 0 then
      keep [ (1, p.q, step); (n + 2, 1. -. p.q, float_of_int n *. step) ]
    else if i <= n then begin
      let p_i = Zeroconf.Probes.no_answer p ~i ~r in
      let forward = if i = n then p.error_cost else step in
      keep [ (0, 1. -. p_i, 0.); (i + 1, p_i, forward) ]
    end
    else [ (i, 1., 0.) ]
  in
  List.iter
    (fun p ->
      List.iter
        (fun r ->
          for n = 1 to 64 do
            let drm = Drm.build p ~n ~r in
            Alcotest.(check int) "n + 3 rows" (n + 3) (C.size drm.Drm.chain);
            for i = 0 to n + 2 do
              let cols, probs = C.successors drm.Drm.chain i in
              let costs = Dtmc.Reward.costs drm.Drm.reward i in
              let row =
                List.init (Array.length cols) (fun e ->
                    (cols.(e), probs.(e), costs.(e)))
              in
              let expected = table p ~n ~r i in
              let where =
                Printf.sprintf "q=%g r=%g n=%d row %d" p.Params.q r n i
              in
              Alcotest.(check (list int)) (where ^ " columns")
                (List.map (fun (j, _, _) -> j) expected)
                (List.map (fun (j, _, _) -> j) row);
              List.iter2
                (fun (_, prob, cost) (_, prob', cost') ->
                  check_rel ~rtol:1e-15 (where ^ " probability") prob prob';
                  Alcotest.(check (float 0.)) (where ^ " cost") cost cost')
                expected row
            done
          done)
        [ 0.; 0.3; 2. ])
    [ fig2; Params.with_q fig2 0. ]

let test_absorption_partition () =
  let drm = Drm.build fig2 ~n:4 ~r:2. in
  let p_err = Drm.error_probability drm in
  let p_ok =
    Dtmc.Absorbing.absorption_probability drm.Drm.chain ~from:drm.Drm.start
      ~into:drm.Drm.ok
  in
  check_rel "error + ok = 1" 1. (p_err +. p_ok)

let test_expected_steps_free_network () =
  (* q = 0: start -> ok in one hop *)
  let p = Params.with_q fig2 0. in
  let drm = Drm.build p ~n:4 ~r:2. in
  check_rel "one step" 1. (Drm.expected_steps drm)

let test_q_one_always_collides_eventually () =
  (* q = 1 - eps with certain replies: every attempt returns to start
     until an unlucky run; with r below the round trip no reply ever
     arrives, so the first attempt errors *)
  let p =
    Params.v ~name:"hopeless"
      ~delay:(Dist.Families.shifted_exponential ~mass:1. ~rate:10. ~delay:1. ())
      ~q:0.99 ~probe_cost:1. ~error_cost:10.
  in
  let drm = Drm.build p ~n:2 ~r:0.3 in
  check_rel "error prob = q (no reply can arrive)" 0.99 (Drm.error_probability drm)

let test_variance_positive_when_random () =
  let p = Params.with_q fig2 0.3 in
  let drm = Drm.build p ~n:3 ~r:1.2 in
  Alcotest.(check bool) "variance > 0" true (Drm.cost_variance drm > 0.)

(* At figure2, r = 2 the no-answer probabilities are already constant by
   i = 16, so the cost variance no longer depends on n.  A variance
   computed as m2 - a^2 loses about 3e-9 of it by n = 512; the central
   recursion keeps every n on the n = 16 value. *)
let test_variance_flat_in_n () =
  let at n = Drm.cost_variance (Drm.build fig2 ~n ~r:2.) in
  let v16 = at 16 in
  for n = 17 to 512 do
    let v = at n in
    if not (Oracle.approx_eq ~rtol:1e-11 v16 v) then
      Alcotest.failf "n = %d: %.17g, n = 16: %.17g" n v v16
  done

let test_guards () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Drm.build: n must be >= 1")
    (fun () -> ignore (Drm.build fig2 ~n:0 ~r:1.));
  Alcotest.check_raises "negative r"
    (Invalid_argument "Drm.build: negative listening period") (fun () ->
      ignore (Drm.build fig2 ~n:1 ~r:(-1.)));
  Alcotest.check_raises "nan r"
    (Invalid_argument "Drm.build: listening period is nan") (fun () ->
      ignore (Drm.build fig2 ~n:1 ~r:nan))

let () =
  Alcotest.run "drm"
    [ ( "structure",
        [ Alcotest.test_case "state layout" `Quick test_state_space_layout;
          Alcotest.test_case "ordinals" `Quick test_ordinal_labels_beyond_ten;
          Alcotest.test_case "probabilities" `Quick
            test_transition_probabilities_match_paper;
          Alcotest.test_case "costs" `Quick test_costs_match_paper;
          Alcotest.test_case "rows = Sec. 4.1 table" `Quick test_rows_match_table;
          Alcotest.test_case "guards" `Quick test_guards ] );
      ( "analysis",
        [ Alcotest.test_case "absorption partition" `Quick test_absorption_partition;
          Alcotest.test_case "free network steps" `Quick
            test_expected_steps_free_network;
          Alcotest.test_case "hopeless network" `Quick
            test_q_one_always_collides_eventually;
          Alcotest.test_case "variance" `Quick test_variance_positive_when_random;
          Alcotest.test_case "variance flat in n" `Quick test_variance_flat_in_n ] ) ]
