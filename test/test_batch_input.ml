(* The batch front end's one-pass parser, checked against the
   list-based parser it replaced.

   [reference_parse] below is [zeroconf_cli batch]'s line parser as it
   was before the rewrite, kept verbatim but for one rule added with
   it: trials= and seed= need backend=mc.  On random lines built from
   the key table plus noise (repeated keys, tabs, a trailing '\r',
   comments, unknown keys, a missing '=', bad and hex numbers, sweep
   edge cases), both must return the same query or fail with the same
   message. *)

module Q = Engine.Query

(* ---------------- reference parser ---------------- *)

let check_size what k =
  if k > Q.max_points then
    invalid_arg (Printf.sprintf "%s: more than %d points" what Q.max_points)

let reference_parse lineno line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let fail msg = failwith (Printf.sprintf "line %d: %s" lineno msg) in
  let checked f = try f () with Invalid_argument msg -> fail msg in
  let tokens =
    String.split_on_char ' ' (String.trim line)
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
  in
  match tokens with
  | [] -> None
  | qname :: rest ->
      let qty =
        match Q.quantity_of_name qname with
        | Some q -> q
        | None -> fail (Printf.sprintf "unknown quantity %s" qname)
      in
      let scenario = ref Zeroconf.Params.figure2 in
      let n = ref 4 and r = ref 2. in
      let ns = ref None and rs = ref None in
      let backend = ref None in
      let trials = ref Engine.Crosscheck.default_trials in
      let seed = ref Engine.Crosscheck.default_seed in
      let int_of key v =
        match int_of_string_opt v with
        | Some i -> i
        | None -> fail (Printf.sprintf "%s=%s is not an integer" key v)
      in
      let float_of key v =
        match float_of_string_opt v with
        | Some x -> x
        | None -> fail (Printf.sprintf "%s=%s is not a number" key v)
      in
      let given = ref [] in
      List.iter
        (fun tok ->
          let key, value =
            match String.index_opt tok '=' with
            | Some i ->
                ( String.sub tok 0 i,
                  String.sub tok (i + 1) (String.length tok - i - 1) )
            | None -> fail (Printf.sprintf "expected key=value, got %s" tok)
          in
          if List.mem key !given then
            fail (Printf.sprintf "key %s given twice" key);
          given := key :: !given;
          match key with
          | "scenario" -> (
              match List.assoc_opt value Zeroconf.Params.presets with
              | Some p -> scenario := p
              | None -> fail (Printf.sprintf "unknown scenario %s" value))
          | "n" -> n := int_of key value
          | "r" -> r := float_of key value
          | "ns" -> (
              match String.split_on_char ':' value with
              | [ lo; hi ] ->
                  let lo = int_of key lo and hi = int_of key hi in
                  if hi < lo then fail "ns range is empty";
                  let size = hi - lo + 1 in
                  checked (fun () ->
                      check_size tok (if size > 0 then size else max_int));
                  ns := Some (Array.init size (fun i -> lo + i))
              | _ -> fail "ns expects LO:HI")
          | "rs" -> (
              match String.split_on_char ':' value with
              | [ lo; hi; points ] ->
                  checked (fun () -> check_size tok (int_of key points));
                  rs :=
                    Some
                      (checked (fun () ->
                           Numerics.Grid.linspace (float_of key lo)
                             (float_of key hi) (int_of key points)))
              | _ -> fail "rs expects LO:HI:POINTS")
          | "backend" -> backend := Some (String.lowercase_ascii value)
          | "trials" -> trials := int_of key value
          | "seed" -> seed := int_of key value
          | _ -> fail (Printf.sprintf "unknown key %s" key))
        rest;
      List.iter
        (fun (a, b) ->
          if List.mem a !given && List.mem b !given then
            fail (Printf.sprintf "%s and %s are mutually exclusive" a b))
        [ ("ns", "rs"); ("n", "ns"); ("r", "rs") ];
      (* the one rule added with the rewrite *)
      if (List.mem "trials" !given || List.mem "seed" !given)
         && !backend <> Some "mc"
      then fail "trials and seed need backend=mc";
      let accuracy =
        if !backend = Some "mc" then Q.Sampled { trials = !trials; seed = !seed }
        else Q.Exact
      in
      let query =
        checked @@ fun () ->
        match (!ns, !rs) with
        | Some ns, _ -> Q.n_sweep ~accuracy qty !scenario ~ns ~r:!r
        | None, Some rs -> Q.r_sweep ~accuracy qty !scenario ~n:!n ~rs
        | None, None -> Q.point ~accuracy qty !scenario ~n:!n ~r:!r
      in
      Some (query, !backend)

(* ---------------- comparison ---------------- *)

let bits = Int64.bits_of_float

let same_domain (a : Q.domain) (b : Q.domain) =
  match (a, b) with
  | Q.Point a, Q.Point b -> a.n = b.n && bits a.r = bits b.r
  | Q.N_sweep a, Q.N_sweep b -> a.ns = b.ns && bits a.r = bits b.r
  | Q.R_sweep a, Q.R_sweep b ->
      a.n = b.n && Array.map bits a.rs = Array.map bits b.rs
  | _ -> false

let same_query (a : Q.t) (b : Q.t) =
  a.Q.quantity = b.Q.quantity
  && a.Q.scenario == b.Q.scenario
  && same_domain a.Q.domain b.Q.domain
  && a.Q.accuracy = b.Q.accuracy

let outcome parse lineno line =
  match parse lineno line with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

let show = function
  | Error msg -> "raised " ^ msg
  | Ok None -> "None"
  | Ok (Some (q, backend)) ->
      Format.asprintf "%a, backend %s" Q.pp q
        (Option.value backend ~default:"-")

let agree a b =
  match (a, b) with
  | Error a, Error b -> a = b
  | Ok None, Ok None -> true
  | Ok (Some (qa, ba)), Ok (Some (qb, bb)) -> ba = bb && same_query qa qb
  | _ -> false

(* ---------------- random lines ---------------- *)

let quantity_gen =
  QCheck.Gen.oneofl
    [ "mean-cost"; "cost"; "error-probability"; "error"; "log10-error";
      "cost-variance"; "variance"; "latency-mean"; "latency"; "bogus"; "Cost" ]

let int_text =
  QCheck.Gen.oneofl
    [ "3"; "1"; "0"; "-1"; "+4"; "0x10"; "1_0"; "007"; "abc"; ""; "2.5";
      "99999999999999999999"; "4\r" ]

let float_text =
  QCheck.Gen.oneofl
    [ "2"; "0.5"; "0"; "-0"; "1e3"; "1.5e-2"; "0x1p-2"; "0x1.8p1"; "nan";
      "inf"; "-1"; "1_0.5"; "abc"; ""; "0.30000000000000004"; "2.\r";
      "2.2675127252964629"; "9007199254740993.0"; ".5"; "5."; "1.2.3" ]

let ns_text =
  QCheck.Gen.(
    oneof
      [ map2 (Printf.sprintf "%s:%s") int_text int_text;
        oneofl
          [ "1:5"; "5:1"; "2"; "1:2:3"; ":"; "1:100000000000"; "-3:2";
            "0x1:0x3"; "a:b"; "1:4611686018427387903";
            "-4611686018427387904:4611686018427387903" ] ])

let rs_text =
  QCheck.Gen.(
    oneof
      [ map3 (Printf.sprintf "%s:%s:%s") float_text float_text int_text;
        oneofl
          [ "0:1:5"; "0:1:1"; "1:1:1"; "0:1:0"; "0:1"; "0:1:2:3";
            "0:1:2000000"; "1:-0:3"; "0x0p0:1:3"; "::"; "a:b:3"; "a:b:x" ] ])

let value_gen = function
  | "scenario" ->
      QCheck.Gen.oneofl
        [ "figure2"; "wireless-worst-case"; "wired-worst-case";
          "realistic-ethernet"; "figure"; "Figure2"; "" ]
  | "n" | "trials" | "seed" -> int_text
  | "r" -> float_text
  | "ns" -> ns_text
  | "rs" -> rs_text
  | "backend" ->
      QCheck.Gen.oneofl [ "mc"; "MC"; "kernel"; "dtmc"; "analytic"; "foo"; "" ]
  | _ -> QCheck.Gen.oneofl [ "1"; ""; "=" ]

let token_gen =
  QCheck.Gen.(
    frequency
      [ ( 8,
          let* key =
            oneofl
              [ "scenario"; "n"; "r"; "ns"; "rs"; "backend"; "trials"; "seed" ]
          in
          map (fun v -> key ^ "=" ^ v) (value_gen key) );
        ( 1,
          oneofl
            [ "foo=1"; "novalue"; "=5"; "=="; "n==3"; "N=3"; "scenario";
              "r=1\r"; "\rn=3"; "n=3\012" ] ) ])

let sep_gen = QCheck.Gen.oneofl [ " "; "  "; "\t"; " \t "; "\t\t" ]

let line_gen =
  QCheck.Gen.(
    let* lead = oneofl [ ""; ""; " "; "\t"; "\012"; "\r" ] in
    let* qname = quantity_gen in
    let* tokens = list_size (int_range 0 5) token_gen in
    let* seps = list_repeat (List.length tokens) sep_gen in
    let* tail = oneofl [ ""; ""; " "; "\r"; " \r"; "\t\r"; "\012" ] in
    let* comment = oneofl [ ""; ""; "# note"; "#"; " # n=5 r=1"; "#\r" ] in
    let body =
      String.concat "" (List.map2 (fun sep tok -> sep ^ tok) seps tokens)
    in
    let* blank = frequency [ (9, return false); (1, return true) ] in
    return
      (if blank then lead ^ tail ^ comment
       else lead ^ qname ^ body ^ tail ^ comment))

let prop_agree =
  QCheck.Test.make ~name:"one-pass parser = reference parser" ~count:3000
    (QCheck.make ~print:String.escaped line_gen)
    (fun line ->
      let expected = outcome reference_parse 7 line
      and got = outcome Batch_input.parse_line 7 line in
      agree expected got
      || QCheck.Test.fail_reportf "reference: %s@.one-pass: %s" (show expected)
           (show got))

(* Plain decimals are read in place; the value must be the one
   [float_of_string] gives, bit for bit: random digit strings with and
   without a point, and random floats at 15 to 17 significant digits.
   A decimal tie such as 9007199254740993.0 (halfway between two
   floats) is left to [float_of_string], which rounds it to even. *)
let decimal_gen =
  QCheck.Gen.(
    oneof
      [ (let* digits = string_size ~gen:numeral (int_range 1 20) in
         let* cut = int_range 0 (String.length digits) in
         return
           (if cut = 0 || cut = String.length digits then digits
            else
              String.sub digits 0 cut ^ "."
              ^ String.sub digits cut (String.length digits - cut)));
        (let* x = float_range 0. 1. in
         let* e = int_range (-12) 17 in
         let* digits = int_range 15 17 in
         return (Printf.sprintf "%.*g" digits (x *. (10. ** float_of_int e))));
        oneofl
          [ "9007199254740993.0"; "9007199254740993"; "18014398509481985.0";
            "0.1"; "6"; "0.0"; "999999999999999999"; "123456789012345678.9" ] ])

let prop_decimals =
  QCheck.Test.make ~name:"plain decimals = float_of_string" ~count:20000
    (QCheck.make ~print:Fun.id decimal_gen)
    (fun text ->
      match Batch_input.parse_line 1 ("cost r=" ^ text) with
      | Some ({ Q.domain = Q.Point { r; _ }; _ }, _) ->
          bits r = bits (float_of_string text)
          || QCheck.Test.fail_reportf "%s read as %h, not %h" text r
               (float_of_string text)
      | _ -> QCheck.Test.fail_report "not a point query")

(* ---------------- fixed cases ---------------- *)

let failure_of f =
  match f () with
  | _ -> Alcotest.fail "expected a Failure"
  | exception Failure msg -> msg

let test_crlf () =
  match Batch_input.parse_line 1 "mean-cost n=3 r=0.5\r" with
  | Some ({ Q.domain = Q.Point { n = 3; r }; _ }, None) ->
      Alcotest.(check (float 0.)) "r" 0.5 r
  | _ -> Alcotest.fail "a CRLF line parses like its LF twin"

let test_sampling_keys () =
  Alcotest.(check string) "trials without mc"
    "line 4: trials and seed need backend=mc"
    (failure_of (fun () -> Batch_input.parse_line 4 "cost trials=10"));
  Alcotest.(check string) "seed beside another backend"
    "line 2: trials and seed need backend=mc"
    (failure_of (fun () ->
         Batch_input.parse_line 2 "cost seed=1 backend=dtmc"));
  match Batch_input.parse_line 1 "cost trials=10 seed=3 backend=MC" with
  | Some ({ Q.accuracy = Q.Sampled { trials = 10; seed = 3 }; _ }, Some "mc") ->
      ()
  | _ -> Alcotest.fail "backend=MC takes trials and seed"

let read lines = Batch_input.read (String.concat "\n" lines)

let test_planner_errors () =
  let plan_one line = read [ "cost"; ""; line ] in
  Alcotest.(check string) "forced backend that cannot answer"
    "line 3: dtmc cannot answer: latency-mean of figure2 at (n = 4, r = 2), \
     exact"
    (failure_of (fun () -> plan_one "latency backend=dtmc"));
  Alcotest.(check string) "unknown backend" "line 3: unknown backend foo"
    (failure_of (fun () -> plan_one "cost backend=foo"))

(* a refusal raised while the batch evaluates names its line too; a
   batch of plans, which has no lines, keeps the bare message *)
let test_evaluation_refusals () =
  let huge = "mean-cost n=4 r=3e307 backend=mc trials=2000" in
  let refusal f =
    match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument msg -> msg
  in
  let bare = "Backends.Mc: mean-cost at n = 4, r = 3e+307 is not finite" in
  Alcotest.(check string) "line of the refused plan" ("line 3: " ^ bare)
    (refusal (fun () -> Engine.Executor.execute (read [ "cost"; "# c"; huge ])));
  let q, backend = Option.get (Batch_input.parse_line 1 huge) in
  Alcotest.(check string) "no line without one" bare
    (refusal (fun () -> Engine.Executor.eval ?backend q))

let test_plans_stream () =
  let b = read [ "# header"; ""; "cost n=2"; "error ns=1:3 r=1"; "  " ] in
  Alcotest.(check int) "blank and comment lines skipped" 2 b.plans;
  Alcotest.(check int) "points" 4 b.points;
  (* the first failing line wins, whichever stage it fails in *)
  Alcotest.(check string) "planner error before a later parse error"
    "line 2: unknown backend foo"
    (failure_of (fun () ->
         read [ "cost"; "cost backend=foo"; "cost r=-1" ]));
  Alcotest.(check int) "empty input" 0 (read [ "# nothing" ]).plans

let test_growth () =
  let b = read (List.init 200 (fun i -> Printf.sprintf "cost n=%d" (i + 1))) in
  Alcotest.(check (list int)) "every line, in order"
    (List.init 200 (fun i -> i + 1))
    (List.init b.plans (fun p -> b.n_lo.(b.run.(p))))

(* ---------------- the channel reader across chunk boundaries ---------------- *)

(* [Batch_input.read_channel] reads 64 KiB chunks: on a longer file the
   first one ends at byte [chunk], where each case below puts the
   feature it names, behind comment padding.  Each input must give the
   batch [read] gives on the whole string, bits of r included, or the
   same [line N:] message. *)
let chunk = 65_536

(* A batch as plain data: [=] on it compares r by its bits *)
let view (b : Engine.Batch.t) =
  ( b.points,
    List.init b.plans (fun p ->
        ( (b.quantity.(p), b.route.(p), b.scenario_id.(p)),
          (Engine.Batch.trials b p, Engine.Batch.seed b p, b.line.(p)),
          List.init (b.run.(p + 1) - b.run.(p)) (fun i ->
              let t = b.run.(p) + i in
              (b.n_lo.(t), bits b.r.(t), b.off.(t + 1) - b.off.(t))) )) )

let batch_outcome read text =
  match read text with
  | b -> Ok (view b)
  | exception Failure msg -> Error msg

let with_file text f =
  let path = Filename.temp_file "batch_input" ".txt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let via_file text =
  with_file text (fun path ->
      In_channel.with_open_bin path Batch_input.read_channel)

(* through a pipe, which has no length, written by another domain *)
let via_pipe text =
  let r, w = Unix.pipe ~cloexec:true () in
  let writer =
    Domain.spawn (fun () ->
        let oc = Unix.out_channel_of_descr w in
        output_string oc text;
        close_out oc)
  in
  let ic = Unix.in_channel_of_descr r in
  Fun.protect
    ~finally:(fun () ->
      Domain.join writer;
      close_in ic)
    (fun () -> Batch_input.read_channel ic)

(* [bytes] of comment and blank lines *)
let padding bytes =
  let line = "# padding " ^ String.make 53 '.' ^ "\n" in
  let full = bytes / String.length line and rest = bytes mod String.length line in
  String.concat "" (List.init full (fun _ -> line))
  ^
  match rest with
  | 0 -> ""
  | 1 -> "\n"
  | k -> "#" ^ String.make (k - 2) '-' ^ "\n"

let head = "cost n=3\nerror scenario=wired-worst-case ns=1:4 r=0.5\n"

(* [head], padding, then [line] with its byte [k] at the boundary, then
   [tail] *)
let across line k tail =
  head ^ padding (chunk - String.length head - k) ^ line ^ tail

let tail = "\nlog10-error rs=0.5:2:4 n=6\n"

let cases =
  let cut line sub off =
    (* the byte [off] into the first [sub] of [line] *)
    let rec find i =
      if String.sub line i (String.length sub) = sub then i else find (i + 1)
    in
    find 0 + off
  in
  let line = "mean-cost scenario=realistic-ethernet n=7 r=0.123456789" in
  let long =
    "error-probability scenario=figure2" ^ String.make (chunk + 1000) ' '
    ^ "n=6 r=1.25 # after a blank run longer than a chunk"
  in
  (* name, input, and whether [read] fails on it *)
  [ ("a line", across line 20 tail, false);
    ("a key", across line (cut line "scenario=" 4) tail, false);
    ("a number", across line (cut line "0.123" 3) tail, false);
    ("a \\r\\n pair", across "cost n=2 r=1\r" 13 tail, false);
    ("a comment", across "error n=5 # a comment across the boundary" 20 tail, false);
    ("a final line without newline", across line 30 "", false);
    ("a line longer than a chunk", across long 100 tail, false);
    ("a line longer than a chunk, last", head ^ long, false);
    ("the empty input", "", false);
    ("a bad number", across "cost r=1.2.3 n=2" 9 tail, true);
    ("an unknown key", across "cost n=2 colour=3" 12 tail, true);
    ("a bad line after the boundary", across line 20 "\ncost n=0\n", true);
    ("a bad final line", across line 20 "\ncost ns=3:1", true) ]

let test_chunks () =
  List.iter
    (fun (name, text, fails) ->
      let whole = batch_outcome Batch_input.read text in
      if Result.is_error whole <> fails then
        Alcotest.failf "%s: read %s" name
          (if fails then "does not fail" else "fails");
      List.iter
        (fun (how, read) ->
          let got = batch_outcome read text in
          if got <> whole then
            Alcotest.failf "%s, through a %s: %s where read gives %s" name how
              (match got with Ok _ -> "a batch" | Error m -> m)
              (match whole with Ok _ -> "another batch" | Error m -> m))
        [ ("file", via_file); ("pipe", via_pipe) ])
    cases

let test_channel_position () =
  (* read_channel reads from the channel's position on: the sizing
     counts only what is left *)
  let text = across "cost n=5 r=0.25" 6 tail in
  with_file ("error n=1\n" ^ text) (fun path ->
      In_channel.with_open_bin path (fun ic ->
          ignore (In_channel.input_line ic);
          Alcotest.(check bool)
            "rest of the file" true
            (view (Batch_input.read_channel ic) = view (Batch_input.read text))))

let () =
  Alcotest.run "batch_input"
    [ ( "parser",
        [ QCheck_alcotest.to_alcotest prop_agree;
          QCheck_alcotest.to_alcotest prop_decimals;
          Alcotest.test_case "CRLF line" `Quick test_crlf;
          Alcotest.test_case "trials and seed need backend=mc" `Quick
            test_sampling_keys ] );
      ( "planning",
        [ Alcotest.test_case "planner errors name their line" `Quick
            test_planner_errors;
          Alcotest.test_case "evaluation refusals name their line" `Quick
            test_evaluation_refusals;
          Alcotest.test_case "streamed lines" `Quick test_plans_stream;
          Alcotest.test_case "plan array growth" `Quick test_growth ] );
      ( "channel",
        [ Alcotest.test_case "chunk boundaries = whole string" `Quick
            test_chunks;
          Alcotest.test_case "from the channel's position" `Quick
            test_channel_position ] ) ]
