let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let fig2 = Zeroconf.Params.figure2

(* ---------------- PRISM ---------------- *)

let prism = Zeroconf.Export.to_prism fig2 ~n:3 ~r:2.

let test_prism_structure () =
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains prism needle))
    [ "dtmc"; "module zeroconf"; "endmodule"; "rewards \"cost\""; "endrewards";
      "s : [0..5] init 0;"; "const double q ="; "const double p1 =";
      "const double p3 =" ]

let test_prism_probabilities_are_the_models () =
  (* the emitted constants are exactly Probes.no_answer *)
  let expected = Printf.sprintf "const double q = %.17g;" fig2.Zeroconf.Params.q in
  Alcotest.(check bool) "q emitted verbatim" true (contains prism expected);
  let p1 = Zeroconf.Probes.no_answer fig2 ~i:1 ~r:2. in
  Alcotest.(check bool) "p1 emitted verbatim" true
    (contains prism (Printf.sprintf "const double p1 = %.17g;" p1))

let test_prism_reward_reproduces_eq3 () =
  (* the emitted state rewards are the one-step expected costs, so their
     absorbing-chain solve must be Eq. 3.  Recompute from the DRM to
     confirm the generator and the model agree. *)
  let drm = Zeroconf.Drm.build fig2 ~n:3 ~r:2. in
  let w = Dtmc.Reward.one_step_expected drm.Zeroconf.Drm.reward in
  (* each emitted `s=i : value;` matches w at the same state index *)
  Array.iteri
    (fun i wi ->
      if wi <> 0. then
        Alcotest.(check bool)
          (Printf.sprintf "reward for state %d emitted" i)
          true
          (contains prism (Printf.sprintf "s=%d : %.17g;" i wi)))
    w

let test_prism_properties () =
  let props = Zeroconf.Export.prism_properties ~n:3 in
  Alcotest.(check bool) "error query" true (contains props "P=? [ F s=4 ]");
  Alcotest.(check bool) "ok query" true (contains props "P=? [ F s=5 ]");
  Alcotest.(check bool) "cost query" true
    (contains props "R{\"cost\"}=? [ F s>=4 ]")

let test_prism_guards () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Export.to_prism: n < 1")
    (fun () -> ignore (Zeroconf.Export.to_prism fig2 ~n:0 ~r:1.))

(* ---------------- DOT ---------------- *)

let dot = Zeroconf.Export.to_dot fig2 ~n:3 ~r:2.

let test_dot_structure () =
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains dot needle))
    [ "digraph chain"; "label=\"start\""; "label=\"1st\""; "label=\"error\"";
      "label=\"ok\""; "peripheries=2"; "->" ]

let test_dot_no_absorbing_self_loops () =
  (* self-loops on error/ok are suppressed for readability *)
  Alcotest.(check bool) "no error self-loop" false (contains dot "s4 -> s4");
  Alcotest.(check bool) "no ok self-loop" false (contains dot "s5 -> s5")

let test_dot_edge_costs () =
  (* the E-cost on the 3rd -> error hop appears *)
  Alcotest.(check bool) "error cost labelled" true (contains dot "/ 1e+35")

(* ---------------- .tra ---------------- *)

let test_tra_format () =
  let drm = Zeroconf.Drm.build fig2 ~n:2 ~r:2. in
  let tra = Dtmc.Export.to_tra drm.Zeroconf.Drm.chain in
  let lines = String.split_on_char '\n' (String.trim tra) in
  (match lines with
  | header :: rows ->
      (match String.split_on_char ' ' header with
      | [ states; transitions ] ->
          Alcotest.(check int) "state count" 5 (int_of_string states);
          Alcotest.(check int) "transition rows" (int_of_string transitions)
            (List.length rows)
      | _ -> Alcotest.fail "malformed header");
      (* each row parses and its probability is in (0, 1] *)
      List.iter
        (fun row ->
          match String.split_on_char ' ' row with
          | [ src; dst; p ] ->
              let p = float_of_string p in
              Alcotest.(check bool) "indices in range" true
                (int_of_string src >= 0 && int_of_string dst < 5);
              Alcotest.(check bool) "probability sane" true (p > 0. && p <= 1.)
          | _ -> Alcotest.fail ("malformed row: " ^ row))
        rows
  | [] -> Alcotest.fail "empty tra")

let test_tra_rows_sum_to_one () =
  let drm = Zeroconf.Drm.build fig2 ~n:2 ~r:2. in
  let tra = Dtmc.Export.to_tra drm.Zeroconf.Drm.chain in
  let sums = Hashtbl.create 8 in
  List.iteri
    (fun i line ->
      if i > 0 && String.trim line <> "" then
        match String.split_on_char ' ' line with
        | [ src; _; p ] ->
            let s = int_of_string src in
            Hashtbl.replace sums s
              (float_of_string p
              +. Option.value ~default:0. (Hashtbl.find_opt sums s))
        | _ -> ())
    (String.split_on_char '\n' tra);
  Hashtbl.iter
    (fun s total ->
      Alcotest.(check bool)
        (Printf.sprintf "state %d outflow 1" s)
        true
        (Oracle.approx_eq ~rtol:1e-12 total 1.))
    sums

let () =
  Alcotest.run "export"
    [ ( "prism",
        [ Alcotest.test_case "structure" `Quick test_prism_structure;
          Alcotest.test_case "verbatim probabilities" `Quick
            test_prism_probabilities_are_the_models;
          Alcotest.test_case "reward = Eq. 3 inputs" `Quick
            test_prism_reward_reproduces_eq3;
          Alcotest.test_case "properties" `Quick test_prism_properties;
          Alcotest.test_case "guards" `Quick test_prism_guards ] );
      ( "dot",
        [ Alcotest.test_case "structure" `Quick test_dot_structure;
          Alcotest.test_case "no absorbing self-loops" `Quick
            test_dot_no_absorbing_self_loops;
          Alcotest.test_case "edge costs" `Quick test_dot_edge_costs ] );
      ( "tra",
        [ Alcotest.test_case "format" `Quick test_tra_format;
          Alcotest.test_case "stochastic rows" `Quick test_tra_rows_sum_to_one ] ) ]
