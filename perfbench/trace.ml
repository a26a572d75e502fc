(* Traced in-process replay of one benchmark workload.

   usage: trace.exe PHASE DIR

   PHASE is one of
   - pipeline     the batch CLI's library path on DIR/queries.txt:
                  Planner.plan, Plan.key (on a second set of plans),
                  Executor.run_batch on the default cache, then the
                  executor's cache protocol (lookup, store on a miss)
                  replayed on that cache;
   - backend      the same plans handed straight to each route's
                  eval_batch, then the closed forms on the same points;
   - figures-J    the figures executable's library path at J jobs;
   - crosscheck-I the crosscheck subcommand's backend calls on the Ith
                  preset of DIR/crosscheck.txt, plus Address_pool
                  set-up timed alone.

   Run every phase in a fresh process: the kernel's per-domain survival
   memo and Cache.default fill on first use, and a phase must find them
   as cold as the CLI does.  Spans are taken here, around calls into
   each layer's public functions; the library itself is not
   instrumented.  Spans (name, start, end, parent) and counters stay in
   memory and are written to DIR/trace-PHASE.json at exit. *)

type span = {
  id : int;
  name : string;
  parent : int;
  start_ns : int64;
  mutable end_ns : int64;
}

let spans = ref []
let current = ref (-1)
let counters : (string, float) Hashtbl.t = Hashtbl.create 16

let span name f =
  let s =
    { id = List.length !spans; name; parent = !current;
      start_ns = Monotonic_clock.now (); end_ns = 0L }
  in
  spans := s :: !spans;
  current := s.id;
  Fun.protect f ~finally:(fun () ->
      s.end_ns <- Monotonic_clock.now ();
      current := s.parent)

let add name v =
  Hashtbl.replace counters name
    (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let addi name v = add name (float_of_int v)

let write_trace path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"spans\": [";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s\n{\"id\": %d, \"name\": %S, \"parent\": %d, \"start_ns\": %Ld, \
             \"end_ns\": %Ld}"
            (if i = 0 then "" else ",")
            s.id s.name s.parent s.start_ns s.end_ns)
        (List.rev !spans);
      output_string oc "],\n\"counters\": {";
      List.iteri
        (fun i (k, v) ->
          Printf.fprintf oc "%s\n%S: %.17g" (if i = 0 then "" else ",") k v)
        (List.sort compare (List.of_seq (Hashtbl.to_seq counters)));
      output_string oc "}}\n")

let cache_counters () =
  let st = Engine.Cache.stats Engine.Cache.default in
  addi "cache.lookups" (st.Engine.Cache.hits + st.Engine.Cache.misses);
  addi "cache.hits" st.Engine.Cache.hits

let pipeline dir =
  Exec.Pool.set_jobs 1;
  let queries = Inputs.read_queries (Filename.concat dir "queries.txt") in
  let plans =
    span "planner.plan" (fun () ->
        Array.map (fun q -> Engine.Planner.plan q) queries)
  in
  addi "planner.plans" (Array.length plans);
  (* Plan.key is lazy and run_batch forces it, as in the CLI, so the keys
     are timed on a second set of plans and [plans] reach run_batch with
     their keys unbuilt *)
  let keyed = Array.map (fun q -> Engine.Planner.plan q) queries in
  let key_bytes =
    span "plan.key" (fun () ->
        Array.fold_left
          (fun acc pl -> acc + String.length (Engine.Plan.key pl))
          0 keyed)
  in
  addi "plan.key_bytes" key_bytes;
  let answers =
    span "executor.run_batch" (fun () -> Engine.Executor.run_batch plans)
  in
  cache_counters ();
  let cache = Engine.Cache.default in
  Engine.Cache.clear cache;
  span "cache.replay" (fun () ->
      Array.iteri
        (fun i pl ->
          match Engine.Cache.lookup cache pl with
          | Some _ -> ()
          | None -> Engine.Cache.store cache pl answers.(i))
        plans);
  addi "cache.replay_lookups" (Array.length plans)

let backend dir =
  Exec.Pool.set_jobs 1;
  let queries = Inputs.read_queries (Filename.concat dir "queries.txt") in
  let plans = Array.map (fun q -> Engine.Planner.plan q) queries in
  List.iter
    (fun route ->
      let routed =
        List.filter
          (fun (pl : Engine.Plan.t) -> pl.Engine.Plan.route = route)
          (Array.to_list plans)
        |> Array.of_list
      in
      if Array.length routed > 0 then begin
        let name = Engine.Plan.route_name route in
        let (module B) = Engine.Planner.backend_of_route route in
        let answers =
          span ("backend." ^ name) (fun () -> B.eval_batch routed)
        in
        Array.iter
          (fun (a : Engine.Answer.t) ->
            addi (name ^ ".evals") a.Engine.Answer.evals)
          answers;
        let columns = Hashtbl.create 1024 in
        Array.iter
          (fun (pl : Engine.Plan.t) ->
            Array.iter
              (fun (_, r) ->
                Hashtbl.replace columns (pl.Engine.Plan.scenario_id, r) ())
              pl.Engine.Plan.points)
          routed;
        addi (name ^ ".columns") (Hashtbl.length columns)
      end)
    Engine.Plan.[ Kernel; Analytic; Dtmc; Mc ];
  let sink = ref 0. in
  span "closed_form" (fun () ->
      Array.iter
        (fun (q : Engine.Query.t) ->
          Array.iter
            (fun (n, r) ->
              sink :=
                !sink
                +. Inputs.closed_form q.Engine.Query.quantity
                     q.Engine.Query.scenario ~n ~r)
            (Engine.Query.points q))
        queries);
  (* keeps the closed-form calls observable *)
  if Float.is_nan !sink then addi "closed_form.nan" 1

(* The chart the figures executable draws for [fig]: its x range from
   the data, its y range from the figure's display clip or the finite
   data. *)
let chart_of_figure (fig : Engine.Experiments.figure) =
  let all f =
    Array.concat
      (List.map
         (fun (s : Engine.Experiments.series) ->
           Array.map f s.Engine.Experiments.points)
         fig.Engine.Experiments.series)
  in
  let x_axis = Output.Axis.of_data ~pad:0. (all fst) in
  let y_axis =
    match (fig.Engine.Experiments.y_min, fig.Engine.Experiments.y_max) with
    | Some lo, Some hi -> Output.Axis.create ~lo ~hi ()
    | lo, hi ->
        let data =
          Output.Axis.of_data
            (Array.of_list
               (List.filter Float.is_finite (Array.to_list (all snd))))
        in
        Output.Axis.create
          ~lo:(Option.value ~default:(Output.Axis.lo data) lo)
          ~hi:(Option.value ~default:(Output.Axis.hi data) hi)
          ()
  in
  { Output.Chart.title = fig.Engine.Experiments.title;
    x_label = fig.Engine.Experiments.x_label;
    y_label = fig.Engine.Experiments.y_label;
    x_axis;
    y_axis;
    series =
      List.map
        (fun (s : Engine.Experiments.series) ->
          Output.Chart.series ~label:s.Engine.Experiments.label
            s.Engine.Experiments.points)
        fig.Engine.Experiments.series }

let figures ~jobs dir =
  Exec.Pool.set_jobs jobs;
  let out = Filename.concat dir (Printf.sprintf "trace-figures-%d" jobs) in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let experiments f =
    let c0 = cpu () in
    let v = span "experiments" f in
    add "experiments.cpu_s" (cpu () -. c0);
    v
  in
  let render (fig : Engine.Experiments.figure) =
    let chart = chart_of_figure fig in
    let path ext = Filename.concat out (fig.Engine.Experiments.id ^ ext) in
    span "output" (fun () ->
        Output.Chart.save chart (path ".svg");
        Output.Csv.write_series ~path:(path ".csv")
          ~x_label:fig.Engine.Experiments.x_label
          (List.map
             (fun (s : Engine.Experiments.series) ->
               (s.Engine.Experiments.label, s.Engine.Experiments.points))
             fig.Engine.Experiments.series))
  in
  List.iter render (experiments Engine.Experiments.all_figures);
  List.iter render (experiments Engine.Experiments.extension_figures);
  let surface = experiments (fun () -> Engine.Experiments.cost_landscape ()) in
  let heatmap =
    { Output.Heatmap.title = "log10 C(n, r) landscape (figure2 scenario)";
      x_label = "r (s)";
      y_label = "n";
      x_ticks = Array.map (Printf.sprintf "%.2g") surface.Engine.Experiments.rs;
      y_ticks = Array.map string_of_int surface.Engine.Experiments.ns;
      values = surface.Engine.Experiments.log10_cost }
  in
  span "output" (fun () ->
      Output.Heatmap.save heatmap (Filename.concat out "cost_landscape.svg"));
  Array.iter
    (fun f ->
      addi "output.bytes" (Unix.stat (Filename.concat out f)).Unix.st_size)
    (Sys.readdir out);
  cache_counters ()

(* Crosscheck.run's calls for the [index]th preset of
   DIR/crosscheck.txt, one backend at a time: the three exact routes
   each forced by name, then Monte Carlo at the crosscheck defaults.
   One preset per process, as the CLI runs them. *)
let crosscheck ~index dir =
  Exec.Pool.set_jobs 1;
  let line =
    List.nth (Inputs.read_lines (Filename.concat dir "crosscheck.txt")) index
  in
  let p = Inputs.preset (List.hd (String.split_on_char ' ' line)) in
  let sampled =
    Engine.Query.Sampled
      { trials = Engine.Crosscheck.default_trials;
        seed = Engine.Crosscheck.default_seed }
  in
  let run name (q : Engine.Query.t) =
    match Engine.Planner.backend_of_name name with
    | Some (module B) when B.supports q ->
        let plan =
          span "planner.plan" (fun () -> Engine.Planner.plan ~backend:name q)
        in
        addi "planner.plans" 1;
        let answers =
          span ("backend." ^ name) (fun () -> B.eval_batch [| plan |])
        in
        Array.iter
          (fun (a : Engine.Answer.t) ->
            addi (name ^ ".evals") a.Engine.Answer.evals)
          answers;
        addi (name ^ ".columns") 1
    | _ -> ()
  in
  List.iter
    (fun quantity ->
      let q =
        Engine.Query.point quantity p ~n:Inputs.crosscheck_n
          ~r:Inputs.crosscheck_r
      in
      List.iter (fun b -> run b q) [ "analytic"; "kernel"; "dtmc" ];
      run "mc" { q with Engine.Query.accuracy = sampled })
    Engine.Query.[ Mean_cost; Error_probability ];
  (* what one Monte-Carlo trial does before it draws a candidate: a
     fresh pool, then the scenario's occupied addresses claimed *)
  let trials = 500 in
  let size = Zeroconf.Params.address_space_size in
  let occupied =
    int_of_float (Float.round (p.Zeroconf.Params.q *. float_of_int size))
    |> min (size - 1) |> max 0
  in
  let rng = Numerics.Rng.create Engine.Crosscheck.default_seed in
  span "address_pool.setup" (fun () ->
      for _ = 1 to trials do
        let pool = Netsim.Address_pool.create () in
        for _ = 1 to occupied do
          ignore (Netsim.Address_pool.claim_random_free pool ~rng)
        done
      done);
  addi "address_pool.trials" trials

let () =
  match Sys.argv with
  | [| _; phase; dir |] ->
      (match phase with
      | "pipeline" -> pipeline dir
      | "backend" -> backend dir
      | _ -> (
          match String.split_on_char '-' phase with
          | [ "figures"; jobs ] -> figures ~jobs:(int_of_string jobs) dir
          | [ "crosscheck"; i ] -> crosscheck ~index:(int_of_string i) dir
          | _ ->
              prerr_endline ("trace: unknown phase " ^ phase);
              exit 2));
      write_trace (Filename.concat dir ("trace-" ^ phase ^ ".json"))
  | _ ->
      prerr_endline "usage: trace.exe PHASE DIR";
      exit 2
