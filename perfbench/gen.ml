(* Seeded input generator for the benchmark workloads.

   usage: gen.exe WORKLOAD SEED DIR

   Writes into DIR everything one run of WORKLOAD needs: the input
   files the executables receive, the expected output they are checked
   against (computed here from the closed forms, not by the program
   under test), and input.json with the input's properties.  Equal
   seeds give byte-identical files.  Randomness comes from
   Numerics.Rng only. *)

(* Sizes chosen so that one invocation does about a second of work
   (points, sweeps) and so that every point has a closed form. *)
let points_per_file = 40_000
let sweeps_per_file = 400
let sweep_n_max = 512
let point_n_max = 16
let r_lo = 0.05
let r_hi = 6.

let quantities =
  Engine.Query.[| Mean_cost; Error_probability; Log10_error |]

let presets = Array.of_list Zeroconf.Params.presets

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines)

let write_input_json ~dir ~workload ~seed ~points ~columns ~duplicates ~lines
    =
  let share num den = if den = 0 then 0. else float num /. float den in
  write_lines (Filename.concat dir "input.json")
    [ Printf.sprintf
        "{\"workload\": %S, \"seed\": %d, \"ocaml_version\": %S, \
         \"points\": %d, \"columns\": %d, \"column_share\": %.17g, \
         \"duplicate_share\": %.17g}"
        workload seed Sys.ocaml_version points columns
        (share columns points) (share duplicates lines) ]

let count_duplicates lines =
  let seen = Hashtbl.create 1024 in
  List.fold_left
    (fun dups l ->
      if Hashtbl.mem seen l then dups + 1
      else begin
        Hashtbl.add seen l ();
        dups
      end)
    0 lines

let expected_line quantity (p : Zeroconf.Params.t) ~n ~r =
  Printf.sprintf "%s %s n=%d r=%g %.10g"
    (Engine.Query.quantity_name quantity)
    p.Zeroconf.Params.name n r
    (Inputs.closed_form quantity p ~n ~r)

(* [count] (quantity, preset, r) draws; no two share a (preset, r)
   column, so nothing a column cache could reuse occurs by chance. *)
let draw_columns rng count =
  let seen = Hashtbl.create count in
  let rec fresh_r name =
    let r = Numerics.Rng.uniform rng ~lo:r_lo ~hi:r_hi in
    if Hashtbl.mem seen (name, r) then fresh_r name
    else begin
      Hashtbl.add seen (name, r) ();
      r
    end
  in
  Array.init count (fun _ ->
      let quantity = quantities.(Numerics.Rng.int rng (Array.length quantities)) in
      let name, p = presets.(Numerics.Rng.int rng (Array.length presets)) in
      (quantity, name, p, fresh_r name))

let batch ~dir ~workload ~seed ~sweeps =
  let rng = Numerics.Rng.create seed in
  let count = if sweeps then sweeps_per_file else points_per_file in
  let draws = draw_columns rng count in
  let queries, expected =
    Array.to_list draws
    |> List.map (fun (quantity, name, p, r) ->
           let qname = Engine.Query.quantity_name quantity in
           if sweeps then
             ( Printf.sprintf "%s scenario=%s ns=1:%d r=%.17g" qname name
                 sweep_n_max r,
               List.init sweep_n_max (fun i ->
                   expected_line quantity p ~n:(i + 1) ~r) )
           else
             let n = 1 + Numerics.Rng.int rng point_n_max in
             ( Printf.sprintf "%s scenario=%s n=%d r=%.17g" qname name n r,
               [ expected_line quantity p ~n ~r ] ))
    |> List.split
  in
  let expected = List.concat expected in
  write_lines (Filename.concat dir "queries.txt") queries;
  write_lines (Filename.concat dir "expected.txt") expected;
  write_lines (Filename.concat dir "setup.txt")
    [ Printf.sprintf "mean-cost scenario=figure2 n=%d r=%g" Inputs.crosscheck_n
        Inputs.crosscheck_r ];
  write_input_json ~dir ~workload ~seed ~points:(List.length expected)
    ~columns:count ~duplicates:(count_duplicates queries)
    ~lines:(List.length queries)

(* figures takes no input; the seed is only recorded.  The plotted
   point count (series points plus landscape cells) is what
   points_per_s counts. *)
let figures ~dir ~seed =
  Exec.Pool.set_jobs 1;
  let series_points figs =
    List.fold_left
      (fun acc (f : Engine.Experiments.figure) ->
        List.fold_left
          (fun acc (s : Engine.Experiments.series) ->
            acc + Array.length s.Engine.Experiments.points)
          acc f.Engine.Experiments.series)
      0 figs
  in
  let surface = Engine.Experiments.cost_landscape () in
  let points =
    series_points (Engine.Experiments.all_figures ())
    + series_points (Engine.Experiments.extension_figures ())
    + (Array.length surface.Engine.Experiments.ns
      * Array.length surface.Engine.Experiments.rs)
  in
  write_input_json ~dir ~workload:"figures" ~seed ~points ~columns:0
    ~duplicates:0 ~lines:0

(* One line per preset, in a seeded order: NAME COST ERROR, the exact
   values at the V4 draft point in the CLI's %.10g. *)
let crosscheck ~dir ~seed =
  let rng = Numerics.Rng.create seed in
  let order = Array.copy presets in
  Numerics.Rng.shuffle rng order;
  let n = Inputs.crosscheck_n and r = Inputs.crosscheck_r in
  write_lines (Filename.concat dir "crosscheck.txt")
    (Array.to_list order
    |> List.map (fun (name, p) ->
           Printf.sprintf "%s %.10g %.10g" name
             (Inputs.closed_form Engine.Query.Mean_cost p ~n ~r)
             (Inputs.closed_form Engine.Query.Error_probability p ~n ~r)));
  let queries = 2 * Array.length order in
  write_input_json ~dir ~workload:"crosscheck" ~seed ~points:queries
    ~columns:(Array.length order) ~duplicates:0 ~lines:queries

let () =
  match Sys.argv with
  | [| _; workload; seed; dir |] -> (
      let seed = int_of_string seed in
      match workload with
      | "points" -> batch ~dir ~workload ~seed ~sweeps:false
      | "sweeps" -> batch ~dir ~workload ~seed ~sweeps:true
      | "figures" -> figures ~dir ~seed
      | "crosscheck" -> crosscheck ~dir ~seed
      | w ->
          prerr_endline ("gen: unknown workload " ^ w);
          exit 2)
  | _ ->
      prerr_endline "usage: gen.exe WORKLOAD SEED DIR";
      exit 2
