(* BENCH_trajectory.jsonl's schema, as tools/benchcmp reads it: every
   line parses and carries its tags, every record names a commit or a
   source hash and every result line follows its record, and every
   record carries the metrics of BENCHMARK.json that benchcmp compares.
   No timing value is checked: the file records measurements, it does
   not assert them.  The verdict itself is checked on made-up pairs. *)

module T = Trajectory

let read path = In_channel.with_open_bin path In_channel.input_all
let spec = lazy (T.parse (read "../BENCHMARK.json"))

let names key =
  match T.member key (Lazy.force spec) with
  | Some (T.Arr entries) ->
      List.filter_map
        (fun e ->
          match T.member "name" e with Some (T.Str s) -> Some s | _ -> None)
        entries
  | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key

let lines =
  lazy
    (match T.lines_of_string (read "../BENCH_trajectory.jsonl") with
    | Ok lines -> lines
    | Error msg -> Alcotest.failf "BENCH_trajectory.jsonl: %s" msg)

let test_parses () =
  Alcotest.(check bool) "not empty" true (Lazy.force lines <> [])

let test_records () =
  let workloads = names "workloads" in
  let metric_sets = [ names "end_to_end"; names "per_layer" ] in
  List.iter
    (fun (l : T.line) ->
      let metrics =
        match l.body with
        | T.Record r ->
            if not (List.mem r.workload workloads) then
              Alcotest.failf "PR %d pair %d: unknown workload %s" l.pr l.pair
                r.workload;
            r.metrics
        | T.Result r -> r.metrics
      in
      if
        not
          (List.exists
             (List.for_all (fun m -> List.mem_assoc m metrics))
             metric_sets)
      then
        Alcotest.failf "PR %d pair %d: the metrics of neither list" l.pr l.pair)
    (Lazy.force lines)

(* each PR's pair of a workload has a parent and a child run *)
let test_pairs () =
  let records =
    List.filter_map
      (fun (l : T.line) ->
        match l.body with
        | T.Record r -> Some (l.pr, r.workload, l.pair, l.side)
        | T.Result _ -> None)
      (Lazy.force lines)
  in
  List.iter
    (fun (pr, w, pair, _) ->
      List.iter
        (fun side ->
          if not (List.mem (pr, w, pair, side) records) then
            Alcotest.failf "PR %d %s pair %d has no %s run" pr w pair
              (T.side_name side))
        [ T.Parent; T.Child ])
    records

(* made-up runs: a record line per side of each pair *)
let made_up values =
  List.concat
    (List.mapi
       (fun pair (p, c) ->
         List.map
           (fun (side, v) ->
             T.tag ~pr:7 ~side ~pair ~cpu:"a \"quoted\" CPU"
               (Printf.sprintf
                  {|{"workload": "points", "provenance": {"commit": null, "source_sha256": "ab12"}, "metrics": {"points_per_s": %g}}|}
                  v))
           [ (T.Parent, p); (T.Child, c) ])
       values)
  |> String.concat "\n"

let claim ?(higher_better = true) values =
  match T.lines_of_string (made_up values) with
  | Error msg -> Alcotest.fail msg
  | Ok lines -> (
      match
        T.verdict lines ~pr:7 ~workload:"points" ~metric:"points_per_s"
          ~higher_better
      with
      | Some v -> (v.T.wins, v.T.claim)
      | None -> Alcotest.fail "no pairs")

let test_verdict () =
  let base = List.init 10 (fun i -> 100. +. float_of_int i) in
  let pairs gain = List.map (fun p -> (p, p +. gain)) base in
  Alcotest.(check (pair int bool)) "ten wins well past the IQR" (10, true)
    (claim (pairs 20.));
  Alcotest.(check (pair int bool)) "a gain inside the IQR" (10, false)
    (claim (pairs 2.));
  Alcotest.(check (pair int bool)) "nine wins of ten" (9, true)
    (claim ((100., 90.) :: List.tl (pairs 20.)));
  Alcotest.(check (pair int bool)) "eight wins of ten" (8, false)
    (claim ((100., 90.) :: (101., 90.) :: List.tl (List.tl (pairs 20.))));
  Alcotest.(check (pair int bool)) "nine pairs" (9, false)
    (claim (List.tl (pairs 20.)));
  Alcotest.(check (pair int bool)) "lower is better" (0, false)
    (claim ~higher_better:false (pairs 20.));
  Alcotest.(check (pair int bool)) "lower is better, lower" (10, true)
    (claim ~higher_better:false (pairs (-20.)))

let test_orphan_result () =
  let result =
    T.tag ~pr:7 ~side:T.Child ~pair:0 ~cpu:"x"
      {|{"correct": true, "attempted": 1, "failed": 0, "metrics": {"cpu_s": {"value": 1.0, "unit": "s"}}}|}
  in
  Alcotest.(check bool) "a result line needs its record" true
    (Result.is_error (T.lines_of_string result))

(* a run in a [git archive] copy names no commit; the tag names it *)
let test_commit_tag () =
  let record commit =
    Printf.sprintf
      {|{"workload": "points", "provenance": {"commit": %s, "source_sha256": "ab12", "nproc": 2}, "metrics": {"points_per_s": 1.0}}|}
      commit
  and result =
    {|{"correct": true, "attempted": 1, "failed": 0, "metrics": {"cpu_s": {"value": 1.0, "unit": "s"}}}|}
  in
  let tag ?commit l = T.tag ?commit ~pr:7 ~side:T.Parent ~pair:0 ~cpu:"x" l in
  let code text =
    match T.lines_of_string text with
    | Ok ({ body = T.Record r; _ } :: _) -> r.code
    | Ok _ -> Alcotest.fail "no record"
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check string) "untagged: the source hash" "ab12"
    (code (tag (record "null")));
  Alcotest.(check string) "tagged: the commit" "ff63536"
    (code
       (tag ~commit:"ff63536" (record "null")
       ^ "\n" ^ tag ~commit:"ff63536" result));
  Alcotest.(check string) "the same commit again" "ff63536"
    (code (tag ~commit:"ff63536" (record {|"ff63536"|})));
  Alcotest.(check bool) "another commit is refused" true
    (match tag ~commit:"ff63536" (record {|"53195e2"|}) with
    | _ -> false
    | exception T.Bad _ -> true)

let () =
  Alcotest.run "trajectory"
    [ ( "BENCH_trajectory.jsonl",
        [ Alcotest.test_case "every line parses with its tags" `Quick test_parses;
          Alcotest.test_case "records name a workload and the metrics" `Quick
            test_records;
          Alcotest.test_case "every pair has both sides" `Quick test_pairs ] );
      ( "benchcmp",
        [ Alcotest.test_case "claim verdict" `Quick test_verdict;
          Alcotest.test_case "result after its record" `Quick test_orphan_result;
          Alcotest.test_case "--commit names the commit" `Quick
            test_commit_tag ] ) ]
