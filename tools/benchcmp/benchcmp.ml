(* benchcmp: the speed-claim verdict from BENCH_trajectory.jsonl, and
   the tags that file's lines carry.

     benchcmp --pr N --workload W --metric M [--file F] [--spec S]
       prints, for PR N's pairs of runs of workload W, each pair's
       values of metric M, the wins, the medians, the parent's
       interquartile range, whether a speed claim on M holds (at least
       10 pairs, at least nine wins in ten, a median gain above the
       parent's IQR) and whether the child's median is within the
       metric's bound of the parent's.  F defaults to
       BENCH_trajectory.jsonl and S, which gives the metric's direction
       and bound, to BENCHMARK.json.  Exits 1 when the claim fails.

     perfbench/run.py ... | benchcmp --tag --pr N --side SIDE --pair I
                            [--commit C]
       copies run.py's record and result lines to standard output, each
       with the tags "pr", "side" (parent or child), "pair" and "cpu"
       (the "model name" of /proc/cpuinfo) in front.  With C, a record
       whose provenance names no commit (run.py run in a copy made by
       [git archive], outside git) names C there. *)

module T = Trajectory

let read_all path = In_channel.with_open_bin path In_channel.input_all

let cpu_model () =
  match read_all "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun l ->
             match String.index_opt l ':' with
             | Some i when String.trim (String.sub l 0 i) = "model name" ->
                 let rest = String.sub l (i + 1) (String.length l - i - 1) in
                 Some (String.trim rest)
             | _ -> None)
      |> Option.value ~default:"unknown"

(* the metric's entry in the benchmark spec: higher is better, bound *)
let spec_of path metric =
  let spec = T.parse (read_all path) in
  let entries =
    List.concat_map
      (fun k -> match T.member k spec with Some (T.Arr l) -> l | _ -> [])
      [ "end_to_end"; "per_layer" ]
  in
  match
    List.find_opt (fun e -> T.member "name" e = Some (T.Str metric)) entries
  with
  | None -> failwith (Printf.sprintf "%s names no metric %s" path metric)
  | Some e ->
      ( T.member "better" e = Some (T.Str "higher"),
        match T.member "bound" e with Some (T.Num b) -> Some b | _ -> None )

let compare_runs ~file ~spec ~pr ~workload ~metric =
  let higher_better, bound = spec_of spec metric in
  let lines =
    match T.lines_of_string (read_all file) with
    | Ok lines -> lines
    | Error msg -> failwith (file ^ ": " ^ msg)
  in
  match T.verdict lines ~pr ~workload ~metric ~higher_better with
  | None ->
      Printf.printf "PR %d, %s, %s: no pair of runs in %s\n" pr workload metric
        file;
      exit 1
  | Some v ->
      Printf.printf "PR %d, %s, %s (%s is better): %d pairs\n" pr workload
        metric
        (if higher_better then "higher" else "lower")
        (List.length v.pairs);
      List.iteri
        (fun i (p, c) ->
          Printf.printf "  pair %d: parent %.6g  child %.6g\n" i p c)
        v.pairs;
      let change = (v.child_median -. v.parent_median) /. v.parent_median in
      Printf.printf
        "wins %d/%d; median parent %.6g, child %.6g (%+.1f%%); parent IQR \
         %.6g\n"
        v.wins (List.length v.pairs) v.parent_median v.child_median
        (100. *. change) v.parent_iqr;
      Printf.printf
        "claim: %s (>= 10 pairs, >= 9 wins in 10, median gain %.6g %s IQR \
         %.6g)\n"
        (if v.claim then "pass" else "fail")
        v.gain
        (if v.gain > v.parent_iqr then ">" else "<=")
        v.parent_iqr;
      Option.iter
        (fun b ->
          let worse = -.v.gain /. Float.abs v.parent_median in
          Printf.printf
            "bound: %s (child median worse by %.1f%%, bound %.0f%%)\n"
            (if worse > b then "exceeded" else "ok")
            (100. *. Float.max 0. worse) (100. *. b))
        bound;
      if not v.claim then exit 1

let tag_lines ?commit ~pr ~side ~pair () =
  let cpu = cpu_model () in
  In_channel.input_lines stdin
  |> List.iter (fun l ->
         if String.trim l <> "" then
           print_endline (T.tag ?commit ~pr ~side ~pair ~cpu l))

let () =
  let pr = ref (-1) and workload = ref "" and metric = ref "" in
  let tag = ref false and side = ref "" and pair = ref (-1) and commit = ref ""
  and file = ref "BENCH_trajectory.jsonl" and spec = ref "BENCHMARK.json" in
  let usage =
    "benchcmp --pr N --workload W --metric M [--file F] [--spec S]\n\
     benchcmp --tag --pr N --side parent|child --pair I [--commit C] < \
     run.py output"
  in
  Arg.parse
    [ ("--pr", Arg.Set_int pr, "N the PR");
      ("--workload", Arg.Set_string workload, "W the workload");
      ("--metric", Arg.Set_string metric, "M the metric");
      ("--file", Arg.Set_string file, "F the trajectory file");
      ("--spec", Arg.Set_string spec, "S the benchmark spec");
      ("--tag", Arg.Set tag, " tag run.py's lines from standard input");
      ("--side", Arg.Set_string side, "SIDE parent or child");
      ("--pair", Arg.Set_int pair, "I the pair index");
      ("--commit", Arg.Set_string commit, "C the commit the run measured") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline ("benchcmp: " ^ msg);
    exit 2
  in
  if !pr < 0 then fail "--pr is required";
  match
    if !tag then
      match T.side_of_name !side with
      | Some side when !pair >= 0 ->
          tag_lines
            ?commit:(if !commit = "" then None else Some !commit)
            ~pr:!pr ~side ~pair:!pair ()
      | _ -> fail "--tag needs --side parent|child and --pair"
    else if !workload = "" || !metric = "" then
      fail "--workload and --metric are required"
    else
      compare_runs ~file:!file ~spec:!spec ~pr:!pr ~workload:!workload
        ~metric:!metric
  with
  | () -> ()
  | exception (Failure msg | Sys_error msg | T.Bad msg) -> fail msg
