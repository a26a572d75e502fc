(* Smoke gate for the multicore and kernel paths, run by
   `dune build @bench-smoke`: the kernel scans against a point-wise
   full scan, the planner and batch routes against direct evaluation, a
   batch of the fanned-out routes (analytic, DTMC, Monte Carlo) at 2
   jobs against the serial run, the batch front end's cost
   against the executor's, the executor's cost against the closed
   forms, the words they promote, the words the front end allocates on
   n-sweeps and the batch output on point and sweep lines, the major
   and minor words of the whole batch path from a file, the kernel
   backend's cost and evals against a bare cursor scan and its survival
   calls per step, the
   words the executor allocates per kernel sweep point, the Sec. 4.4
   optimizers' allocation, the Monte-Carlo trial loop's, and
   the words the figure render allocates per plotted point.  The
   paper-reproduction report is `zeroconf_cli reproduce`; absolute
   timing lives in perfbench/.

   Usage: main.exe --smoke *)

let fig2_scenario = Zeroconf.Params.figure2

(* The point-wise full scan: a [Cost.mean] rebuild per candidate n,
   over every n up to [n_max], with no stop.  Kept here as the baseline
   the streaming kernel scan is smoke-checked against; it asserts that
   the floor (1-q) (n_max + 1) (r + c) of every larger n passes its
   minimum, so no n past [n_max] could win. *)
let optimal_n_full_scan ~n_max (p : Zeroconf.Params.t) ~r =
  let best_n = ref 1 and best_cost = ref (Zeroconf.Cost.mean p ~n:1 ~r) in
  for n = 2 to n_max do
    let c = Zeroconf.Cost.mean p ~n ~r in
    if c < !best_cost then begin
      best_n := n;
      best_cost := c
    end
  done;
  assert (
    (1. -. p.q) *. float_of_int (n_max + 1) *. (r +. p.probe_cost) > !best_cost);
  (!best_n, !best_cost)

(* The n-scan artifacts through the streaming kernel, at smoke sizes:
   the dense lattice starts at r = 1/4096, where no reply can arrive
   before n = 4096 and the scan runs to its cap. *)
let kernel_specs =
  let dense = Array.init 8 (fun k -> float_of_int (k + 1) /. 4096.) in
  let sweep_grid = Numerics.Grid.linspace 0.05 6. 6 in
  [ ( "optimal-n/dense-4096",
      fun () ->
        Array.iter
          (fun r -> ignore (Zeroconf.Optimize.optimal_n fig2_scenario ~r))
          dense );
    ( "fig3-4/optimal-n-sweep",
      fun () ->
        ignore (Zeroconf.Optimize.optimal_n_sweep fig2_scenario sweep_grid) ) ]

let smoke () =
  (* the n-scan artifacts run through the kernel, and the streaming
     scan reproduces the point-wise rebuild bit for bit *)
  List.iter
    (fun (name, kernel) ->
      kernel ();
      Printf.printf "smoke ok: %s (kernel)\n" name)
    kernel_specs;
  Array.iter
    (fun r ->
      assert (optimal_n_full_scan ~n_max:128 fig2_scenario ~r
              = Zeroconf.Optimize.optimal_n fig2_scenario ~r))
    (Numerics.Grid.linspace 0.02 6. 16);
  print_endline "smoke ok: kernel scans = point-wise full scan";
  (* query engine: the planner's default route must reproduce the
     direct evaluation bit for bit, and the crosscheck must hold all
     deterministic routes within 1e-9 on every preset *)
  let module Q = Engine.Query in
  let module A = Engine.Answer in
  let planner_value qty p ~n ~r =
    A.scalar (Engine.Executor.eval (Q.point qty p ~n ~r)) 0
  in
  List.iter
    (fun (_, p) ->
      List.iter
        (fun (n, r) ->
          assert (planner_value Q.Mean_cost p ~n ~r = Zeroconf.Cost.mean p ~n ~r);
          assert (planner_value Q.Error_probability p ~n ~r
                  = Zeroconf.Reliability.error_probability p ~n ~r))
        [ (1, 0.5); (4, 2.); (8, 0.7) ])
    Zeroconf.Params.presets;
  print_endline "smoke ok: planner routes bit-identical to direct evaluation";
  (* an answer's points and values as IEEE bits, so [=] on them is
     bitwise: -0 and 0 differ, and a NaN equals itself *)
  let answer_bits (a : A.t) =
    let bits = Int64.bits_of_float in
    ( Array.map (fun (n, r) -> (n, bits r)) a.A.points,
      match a.A.values with
      | A.Scalars v -> Array.map (fun x -> [ bits x ]) v
      | A.Intervals v ->
          Array.map
            (fun { A.mean; ci_lo; ci_hi } -> List.map bits [ mean; ci_lo; ci_hi ])
            v )
  in
  (* cost and error share one Monte-Carlo run per preset, and each
     shared answer equals, bit for bit, that quantity's Monte-Carlo
     run alone *)
  let sampled = Q.Sampled { trials = 500; seed = Engine.Crosscheck.default_seed } in
  List.iter
    (fun (name, p) ->
      let queries =
        List.map
          (fun qty -> Q.point qty p ~n:4 ~r:2.)
          [ Q.Mean_cost; Q.Error_probability ]
      in
      List.iter2
        (fun (q : Q.t) (rep : Engine.Crosscheck.report) ->
          assert (List.length rep.Engine.Crosscheck.answers = 4);
          assert (rep.Engine.Crosscheck.max_rel_divergence <= 1e-9);
          let mc = List.nth rep.Engine.Crosscheck.answers 3 in
          let solo =
            Engine.Executor.eval ~backend:"mc" { q with Q.accuracy = sampled }
          in
          assert (mc.A.backend = "mc");
          assert (answer_bits mc = answer_bits solo);
          Printf.printf "smoke ok: crosscheck %s %s (max divergence %.2e)\n"
            name (Q.quantity_name q.Q.quantity)
            rep.Engine.Crosscheck.max_rel_divergence)
        queries
        (Engine.Crosscheck.run ~trials:500 queries))
    Zeroconf.Params.presets;
  (* batched execution: values bitwise equal to scalar evaluation at
     one and at two jobs; the workload holds several units of each
     fanned-out route (analytic points, DTMC builds,
     Monte-Carlo streams), so two domains really split them *)
  let grid8 = Numerics.Grid.linspace 0.05 6. 8 in
  let ns8 = Array.init 8 (fun i -> i + 1) in
  let workload =
    Array.concat
      [ Array.init 4 (fun i ->
            Q.r_sweep Q.Mean_cost fig2_scenario ~n:(i + 1) ~rs:grid8);
        Array.map (fun r -> Q.n_sweep Q.Log10_error fig2_scenario ~ns:ns8 ~r) grid8;
        [| Q.r_sweep Q.Latency_mean fig2_scenario ~n:4 ~rs:grid8;
           Q.n_sweep Q.Cost_variance fig2_scenario ~ns:[| 1; 2; 3; 4 |] ~r:2.;
           Q.r_sweep
             ~accuracy:(Q.Sampled { trials = 200; seed = 7 })
             Q.Mean_cost fig2_scenario ~n:3 ~rs:[| 0.5; 1.; 1.5 |] |] ]
  in
  assert (
    List.for_all
      (fun route ->
        Array.exists
          (fun q -> (Engine.Planner.plan q).Engine.Plan.route = route)
          workload)
      Engine.Plan.[ Analytic; Dtmc; Mc ]);
  let batched = Engine.Executor.eval_batch workload in
  let scalar = Array.map Engine.Executor.eval workload in
  Array.iter2
    (fun a b -> assert (answer_bits a = answer_bits b))
    batched scalar;
  (* two domains even on a 1-core host *)
  Exec.Pool.set_jobs 2;
  let batched_par = Engine.Executor.eval_batch workload in
  Exec.Pool.set_jobs 1;
  Array.iter2
    (fun a b -> assert (answer_bits a = answer_bits b))
    batched batched_par;
  print_endline "smoke ok: batched evaluation bit-identical to scalar"

(* Three gates on 20k distinct point lines in the benchmark's [points]
   format, each stage timed in process at its best of 5 runs, each run
   from a settled heap ([Gc.full_major]), so no stage pays for the
   collection of another's garbage:
   - the batch front end ([Batch_input.read]: parse, route, validate,
     append to the columnar batch) may cost at most what the engine's
     [Executor.execute] costs on the batch it hands over;
   - [Executor.execute] may cost at most 3x the closed forms
     ([Cost.mean], [Reliability]) on the same points, whose values it
     must reproduce bit for bit;
   - parse and execute together may promote less than one word per
     point line to the major heap, in every run (counted exactly, with
     [Gc.counters]): no block per point survives a minor collection.
   The timing gates are on the ratios alone, never on an absolute time,
   so they hold on any host. *)
let point_lines_count = 20_000
and point_runs = 5
and front_end_max_ratio = 1.
and engine_max_ratio = 3.
and max_promoted_per_line = 1.

let point_lines () =
  let rng = Numerics.Rng.create 2003 in
  let quantities = [| Engine.Query.Mean_cost; Engine.Query.Error_probability;
                      Engine.Query.Log10_error |]
  and presets = Array.of_list Zeroconf.Params.presets in
  Array.init point_lines_count (fun _ ->
      let q = quantities.(Numerics.Rng.int rng (Array.length quantities)) in
      let name, _ = presets.(Numerics.Rng.int rng (Array.length presets)) in
      let n = 1 + Numerics.Rng.int rng 16 in
      Printf.sprintf "%s scenario=%s n=%d r=%.17g"
        (Engine.Query.quantity_name q) name n
        (Numerics.Rng.uniform rng ~lo:0.05 ~hi:6.))

let closed_forms (b : Engine.Batch.t) =
  let module Q = Engine.Query in
  Array.init b.plans (fun pl ->
      let t = b.run.(pl) in
      let p = Engine.Batch.scenario b pl and n = b.n_lo.(t) and r = b.r.(t) in
      match b.quantity.(pl) with
      | Q.Mean_cost -> Zeroconf.Cost.mean p ~n ~r
      | Q.Error_probability -> Zeroconf.Reliability.error_probability p ~n ~r
      | _ -> Zeroconf.Reliability.log10_error_probability p ~n ~r)

(* both ratios are printed before either gate fails *)
let gates checks =
  List.iter
    (fun (what, base, ratio, max_ratio) ->
      Printf.printf "smoke %s: %s at %.2fx %s (gate %gx)\n"
        (if ratio > max_ratio then "FAIL" else "ok")
        what ratio base max_ratio)
    checks;
  List.iter
    (fun (what, base, ratio, max_ratio) ->
      if ratio > max_ratio then
        failwith
          (Printf.sprintf "%s at %.2fx %s on %d point lines (gate %gx)" what
             ratio base point_lines_count max_ratio))
    checks

let point_gates () =
  let text = String.concat "\n" (Array.to_list (point_lines ())) in
  let front = ref Int64.max_int
  and exec = ref Int64.max_int
  and closed = ref Int64.max_int
  and promoted = ref 0. in
  for _ = 1 to point_runs do
    Gc.full_major ();
    let _, words0, _ = Gc.counters () in
    let t0 = Monotonic_clock.now () in
    let b = Batch_input.read text in
    let t1 = Monotonic_clock.now () in
    Engine.Executor.execute b;
    let t2 = Monotonic_clock.now () in
    let _, words1, _ = Gc.counters () in
    let values = closed_forms b in
    let t3 = Monotonic_clock.now () in
    assert (b.plans = point_lines_count && b.points = point_lines_count);
    Array.iteri
      (fun pl v ->
        assert (
          Int64.equal
            (Int64.bits_of_float b.value.(Engine.Batch.first_point b pl))
            (Int64.bits_of_float v)))
      values;
    promoted := Float.max !promoted (words1 -. words0);
    front := min !front (Int64.sub t1 t0);
    exec := min !exec (Int64.sub t2 t1);
    closed := min !closed (Int64.sub t3 t2)
  done;
  let ratio a b = Int64.to_float a /. Int64.to_float b in
  let per_line = !promoted /. float_of_int point_lines_count in
  Printf.printf
    "smoke %s: parse + execute promote %.3f words per point line (gate %g)\n"
    (if per_line < max_promoted_per_line then "ok" else "FAIL")
    per_line max_promoted_per_line;
  gates
    [ ("batch front end", "Executor.execute", ratio !front !exec,
       front_end_max_ratio);
      ("Executor.execute", "the closed forms", ratio !exec !closed,
       engine_max_ratio) ];
  if per_line >= max_promoted_per_line then
    failwith
      (Printf.sprintf
         "parse + execute promote %.3f words per point line (gate %g)"
         per_line max_promoted_per_line)

(* Three counts, with the [Gc] counters, which are deterministic, so
   they cannot flake on a noisy host:
   - the front end keeps an n-sweep as one run: [Batch_input.read] of
     400 [ns=1:512] lines (204,800 points) may allocate at most 64
     words per line, minor and major alike (large arrays skip the minor
     heap), where a column per point takes two words a point;
   - [Batch_output.emit] of the 20k point lines' batch, and of those
     400 sweeps' 204,800 lines, may allocate less than half a minor
     word per output line: a float boxed on its way to the formatter
     costs two. *)
let sweep_lines_count = 400
and max_words_per_sweep_line = 64.
and max_emit_words_per_line = 0.5

let count_gates () =
  let rng = Numerics.Rng.create 2003
  and presets = Array.of_list Zeroconf.Params.presets in
  let text =
    String.concat "\n"
      (List.init sweep_lines_count (fun _ ->
           let name, _ = presets.(Numerics.Rng.int rng (Array.length presets)) in
           Printf.sprintf "mean-cost scenario=%s ns=1:512 r=%.17g" name
             (Numerics.Rng.uniform rng ~lo:0.05 ~hi:6.)))
  in
  let before = Gc.allocated_bytes () in
  let b = Batch_input.read text in
  let parse =
    (Gc.allocated_bytes () -. before)
    /. float_of_int (Sys.word_size / 8)
    /. float_of_int sweep_lines_count
  in
  assert (b.points = 512 * sweep_lines_count);
  let null = open_out_bin Filename.null in
  (* minor words per output line of [b]'s emit, after its execution *)
  let emit_words (b : Engine.Batch.t) =
    Engine.Executor.execute b;
    let before = Gc.minor_words () in
    Batch_output.emit null b;
    (Gc.minor_words () -. before) /. float_of_int b.points
  in
  let sweep_emit = emit_words b in
  let emit =
    emit_words
      (Batch_input.read (String.concat "\n" (Array.to_list (point_lines ()))))
  in
  close_out null;
  Printf.printf
    "smoke %s: Batch_input.read at %.1f words per ns=1:512 line (gate %g)\n\
     smoke %s: Batch_output.emit at %.3f minor words per point line (gate %g)\n\
     smoke %s: Batch_output.emit at %.3f minor words per ns=1:512 output line \
     (gate %g)\n"
    (if parse <= max_words_per_sweep_line then "ok" else "FAIL")
    parse max_words_per_sweep_line
    (if emit < max_emit_words_per_line then "ok" else "FAIL")
    emit max_emit_words_per_line
    (if sweep_emit < max_emit_words_per_line then "ok" else "FAIL")
    sweep_emit max_emit_words_per_line;
  if parse > max_words_per_sweep_line then
    failwith
      (Printf.sprintf
         "Batch_input.read allocates %.1f words per ns=1:512 line (gate %g)"
         parse max_words_per_sweep_line);
  if emit >= max_emit_words_per_line then
    failwith
      (Printf.sprintf
         "Batch_output.emit allocates %.3f minor words per point line (gate %g)"
         emit max_emit_words_per_line);
  if sweep_emit >= max_emit_words_per_line then
    failwith
      (Printf.sprintf
         "Batch_output.emit allocates %.3f minor words per ns=1:512 output line \
          (gate %g)"
         sweep_emit max_emit_words_per_line)

(* Two counts on the CLI's whole [batch] path over the 20k point lines,
   written to a file (one line each, '\n'-terminated) and then read
   back through [Batch_input.read_channel], executed by
   [Executor.execute] and printed by [Batch_output.emit] to the null
   device, from a settled heap ([Gc.full_major]):
   - at most 16 words per line reach the major heap, promoted or
     allocated there (the batch's columns, the results, the kernel's
     probe table, the read and write buffers; it reads about 13.0):
     reading the whole file into one string first took about 24;
   - at most 40 minor words per line: what is left (about 33.6) is the
     survival closure's boxed argument and result on each kernel step;
     a fresh cursor per column took about 52 in all.
   Counted exactly, minor words with [Gc.minor_words] and major words
   with [Gc.counters], so the gates cannot flake on a noisy host.
   ([Gc.quick_stat] is deterministic too, but in OCaml 5.1 it lags: it
   leaves out the words allocated since the domain's last minor or
   major slice, and read 26.2 and 12.6 here.) *)
let pipeline_max_major_words = 16.
and pipeline_max_minor_words = 40.

let pipeline_gate () =
  let path = Filename.temp_file "smoke_points" ".txt" in
  Out_channel.with_open_bin path (fun oc ->
      Array.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        (point_lines ()));
  let null = open_out_bin Filename.null in
  Gc.full_major ();
  let minor0 = Gc.minor_words () and _, _, major0 = Gc.counters () in
  let b = In_channel.with_open_bin path Batch_input.read_channel in
  Engine.Executor.execute b;
  Batch_output.emit null b;
  let minor1 = Gc.minor_words () and _, _, major1 = Gc.counters () in
  close_out null;
  Sys.remove path;
  assert (b.plans = point_lines_count);
  let per_line words = words /. float_of_int point_lines_count in
  let major = per_line (major1 -. major0)
  and minor = per_line (minor1 -. minor0) in
  let checks =
    [ ("major", major, pipeline_max_major_words);
      ("minor", minor, pipeline_max_minor_words) ]
  in
  List.iter
    (fun (what, words, gate) ->
      Printf.printf
        "smoke %s: batch file -> read_channel -> execute -> emit at %.1f %s \
         words per point line (gate %g)\n"
        (if words <= gate then "ok" else "FAIL")
        words what gate)
    checks;
  List.iter
    (fun (what, words, gate) ->
      if words > gate then
        failwith
          (Printf.sprintf
             "the batch path allocates %.1f %s words per point line (gate %g)"
             words what gate))
    checks

(* The kernel backend may cost at most twice a bare cursor scan of the
   same columns into float arrays: 200 n-sweeps ns=1:512, each at its
   own r, across the four presets and the three kernel quantities, each
   side timed in process at its best of 5 runs from a settled heap.
   What the backend adds to the scan is bookkeeping (the plans copied
   into a columnar batch, runs, columns, answers sliced back out); the
   gate is on the ratio alone, never on an absolute time.  Beside it, a
   count: the backend's evals sum to exactly the bare scan's cursor
   steps, so a ratio that moves while the count holds is the host, not
   more work. *)
let kernel_sweeps = 200
and kernel_sweep_n = 512
and kernel_runs = 5
and kernel_max_ratio = 2.

let kernel_gate () =
  let module Q = Engine.Query in
  let presets = Array.of_list Zeroconf.Params.presets
  and quantities = [| Q.Mean_cost; Q.Error_probability; Q.Log10_error |] in
  let ns = Array.init kernel_sweep_n (fun i -> i + 1) in
  let plans =
    Array.init kernel_sweeps (fun i ->
        let _, p = presets.(i mod Array.length presets) in
        let qty = quantities.(i / Array.length presets mod 3) in
        let r = 0.05 +. (6. *. float_of_int i /. float_of_int kernel_sweeps) in
        Engine.Plan.make ~route:Engine.Plan.Kernel (Q.n_sweep qty p ~ns ~r))
  in
  (* the backend's reader-set work: the log twin for log10 reads only *)
  let scan (pl : Engine.Plan.t) =
    let k =
      Zeroconf.Kernel.create
        ~log_twin:(pl.Engine.Plan.quantity = Q.Log10_error)
        pl.Engine.Plan.scenario ~r:(snd pl.Engine.Plan.points.(0))
    in
    let v = Array.create_float kernel_sweep_n in
    for i = 0 to kernel_sweep_n - 1 do
      Zeroconf.Kernel.advance k;
      v.(i) <-
        (match pl.Engine.Plan.quantity with
        | Q.Mean_cost -> Zeroconf.Kernel.cost k
        | Q.Error_probability -> Zeroconf.Kernel.error_probability k
        | _ -> Zeroconf.Kernel.log10_error k)
    done;
    (v, Zeroconf.Kernel.n k)
  in
  let time f =
    let best = ref Int64.max_int and out = ref None in
    for _ = 1 to kernel_runs do
      Gc.full_major ();
      let t0 = Monotonic_clock.now () in
      let x = f () in
      let t1 = Monotonic_clock.now () in
      best := min !best (Int64.sub t1 t0);
      out := Some x
    done;
    (Option.get !out, Int64.to_float !best)
  in
  let bare, bare_ns = time (fun () -> Array.map scan plans) in
  let answers, kernel_ns =
    time (fun () -> Engine.Backends.Kernel.eval_batch plans)
  in
  Array.iteri
    (fun i (a : Engine.Answer.t) ->
      match a.Engine.Answer.values with
      | Engine.Answer.Scalars v ->
          assert (
            Array.for_all2
              (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
              v (fst bare.(i)))
      | Engine.Answer.Intervals _ -> assert false)
    answers;
  let evals =
    Array.fold_left (fun s (a : Engine.Answer.t) -> s + a.Engine.Answer.evals) 0
      answers
  and steps = Array.fold_left (fun s (_, n) -> s + n) 0 bare in
  if evals <> steps then
    failwith
      (Printf.sprintf
         "Backends.Kernel.eval_batch counts %d evals, the bare scan %d cursor \
          steps"
         evals steps);
  Printf.printf
    "smoke ok: Backends.Kernel.eval_batch at %d evals = the bare scan's %d \
     cursor steps\n"
    evals steps;
  let ratio = kernel_ns /. bare_ns in
  if ratio > kernel_max_ratio then
    failwith
      (Printf.sprintf
         "Backends.Kernel.eval_batch at %.2fx a bare cursor scan of %d sweeps \
          (gate %gx)"
         ratio kernel_sweeps kernel_max_ratio);
  Printf.printf
    "smoke ok: Backends.Kernel.eval_batch at %.2fx a bare cursor scan (gate %gx)\n"
    ratio kernel_max_ratio

(* A kernel cursor steps only what its readers read: on 400 n-sweeps
   ns=1:512 of mean cost and error probability (no log10 reader, so no
   log twin) at random r over a counting copy of wireless-worst-case's
   delay, whose 1e-5 loss floor is the slowest preset to underflow,
   [Backends.Kernel.eval_batch] may call the survival function at most
   0.5 times per kernel step (an eval): once pi_n is +0 a step is an
   increment.  A survival call per step reads 1.0.  Counted, not timed,
   so it cannot flake on a noisy host. *)
let survival_sweeps = 400
and max_survival_per_step = 0.5

let survival_gate () =
  let module Q = Engine.Query in
  let base = Zeroconf.Params.wireless_worst_case in
  let calls = ref 0 and d = base.Zeroconf.Params.delay in
  let counting =
    Zeroconf.Params.with_delay base
      { d with
        Dist.Distribution.survival =
          (fun t ->
            incr calls;
            d.Dist.Distribution.survival t) }
  in
  let rng = Numerics.Rng.create 2003 and ns = Array.init 512 (fun i -> i + 1) in
  let plans =
    Array.init survival_sweeps (fun i ->
        let qty = if i mod 2 = 0 then Q.Mean_cost else Q.Error_probability in
        let r = Numerics.Rng.uniform rng ~lo:0.05 ~hi:6. in
        Engine.Plan.make ~route:Engine.Plan.Kernel (Q.n_sweep qty counting ~ns ~r))
  in
  let answers = Engine.Backends.Kernel.eval_batch plans in
  let steps =
    Array.fold_left (fun k (a : Engine.Answer.t) -> k + a.Engine.Answer.evals) 0 answers
  in
  assert (steps = 512 * survival_sweeps);
  let per_step = float_of_int !calls /. float_of_int steps in
  if per_step > max_survival_per_step then
    failwith
      (Printf.sprintf
         "Backends.Kernel.eval_batch calls survival %.3f times per step (gate %g)"
         per_step max_survival_per_step);
  Printf.printf
    "smoke ok: Backends.Kernel.eval_batch at %.3f survival calls per step (gate %g)\n"
    per_step max_survival_per_step

(* Kernel columns are written in place: [Executor.execute] on 400
   n-sweeps ns=1:512 of figure2 at random r, one batch per kernel
   quantity, may allocate at most 0.5 minor words per point for mean
   cost and error probability and 4.5 for the log10 error.  What is
   left is the survival closure's boxed argument and result on each
   step that calls it: a cursor with the log twin calls it on every
   step, one without it stops once pi_n is +0.  A float boxed per point
   read adds two words.  Counted with [Gc.minor_words], which is
   deterministic, so the gate cannot flake. *)
let execute_sweeps = 400

let max_execute_words =
  [ ("mean-cost", 0.5); ("error-probability", 0.5); ("log10-error", 4.5) ]

let execute_gate () =
  let counts =
    List.map
      (fun (quantity, _) ->
        let rng = Numerics.Rng.create 2003 in
        let b =
          Batch_input.read
            (String.concat "\n"
               (List.init execute_sweeps (fun _ ->
                    Printf.sprintf "%s scenario=figure2 ns=1:512 r=%.17g" quantity
                      (Numerics.Rng.uniform rng ~lo:0.05 ~hi:6.))))
        in
        assert (b.points = 512 * execute_sweeps);
        for p = 0 to b.plans - 1 do
          assert (b.route.(p) = Engine.Plan.Kernel)
        done;
        let before = Gc.minor_words () in
        Engine.Executor.execute b;
        (Gc.minor_words () -. before) /. float_of_int b.points)
      max_execute_words
  in
  List.iter2
    (fun (quantity, gate) words ->
      Printf.printf
        "smoke %s: Executor.execute on %s sweeps at %.2f minor words per point \
         (gate %g)\n"
        (if words <= gate then "ok" else "FAIL")
        quantity words gate)
    max_execute_words counts;
  List.iter2
    (fun (quantity, gate) words ->
      if words > gate then
        failwith
          (Printf.sprintf
             "Executor.execute on %s sweeps allocates %.2f minor words per point \
              (gate %g)"
             quantity words gate))
    max_execute_words counts

(* The Sec. 4.4 optimizers stop at a proven bound, not after a run of
   misses: Figs. 3/4's optimal-n sweep over its 600-r grid and the
   global optimum on figure2 may each allocate at most half the minor
   words they took with patience scans (165,088 and 252,485; the grid
   is built before the count).  Counted with [Gc.minor_words], which
   is deterministic, so the gates cannot flake. *)
let optimizer_max_words =
  [ ("optimal_n_sweep, 600 r", 165_088. /. 2.);
    ("global_optimum figure2", 252_485. /. 2.) ]

let optimizer_gate () =
  let grid = Numerics.Grid.linspace 0.02 6. 600 in
  let count f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  let words =
    [ count (fun () -> Zeroconf.Optimize.optimal_n_sweep fig2_scenario grid);
      count (fun () -> Zeroconf.Optimize.global_optimum fig2_scenario) ]
  in
  List.iter2
    (fun (what, gate) words ->
      Printf.printf "smoke %s: %s allocates %.0f minor words (gate %.0f)\n"
        (if words <= gate then "ok" else "FAIL")
        what words gate)
    optimizer_max_words words;
  List.iter2
    (fun (what, gate) words ->
      if words > gate then
        failwith
          (Printf.sprintf "%s allocates %.0f minor words (gate %.0f)" what words
             gate))
    optimizer_max_words words

(* A Monte-Carlo trial costs its arithmetic and nothing else: 20k
   aggregate trials on figure2 at n = 4, r = 2 may allocate at most one
   minor word per trial (what is left are the reply-delay draws of the
   few occupied candidates) and 2.1 major words per trial (the sample's
   two float columns, born in the major heap; six columns read about
   6), and 10k [Rng.int] draws none at all.  The gates count words with
   [Gc.minor_words] and [Gc.counters], which are deterministic, so they
   cannot flake on a noisy host. *)
let alloc_trials = 20_000
and alloc_max_words_per_trial = 1.
and alloc_max_major_words_per_trial = 2.1
and alloc_draws = 10_000

let alloc_gate () =
  let p = fig2_scenario in
  let config =
    Netsim.Newcomer.drm_config ~n:4 ~r:2. ~probe_cost:p.Zeroconf.Params.probe_cost
      ~error_cost:p.Zeroconf.Params.error_cost
  in
  let occupied =
    int_of_float
      (Float.round
         (p.Zeroconf.Params.q *. float_of_int Zeroconf.Params.address_space_size))
  in
  let _, _, major = Gc.counters () in
  let minor = Gc.minor_words () in
  let sample =
    Netsim.Scenario.run_aggregate ~delay:p.Zeroconf.Params.delay ~occupied
      ~config ~trials:alloc_trials ~rng:(Numerics.Rng.create 42) ()
  in
  let minor' = Gc.minor_words () in
  let _, _, major' = Gc.counters () in
  let per_trial = (minor' -. minor) /. float_of_int alloc_trials
  and major_per_trial = (major' -. major) /. float_of_int alloc_trials in
  assert (Netsim.Metrics.length sample = alloc_trials);
  if per_trial > alloc_max_words_per_trial then
    failwith
      (Printf.sprintf
         "Scenario.run_aggregate allocates %.2f minor words per trial (gate %g)"
         per_trial alloc_max_words_per_trial);
  if major_per_trial > alloc_max_major_words_per_trial then
    failwith
      (Printf.sprintf
         "Scenario.run_aggregate allocates %.2f major words per trial (gate %g)"
         major_per_trial alloc_max_major_words_per_trial);
  let rng = Numerics.Rng.create 2003 in
  let before = Gc.minor_words () in
  for _ = 1 to alloc_draws do
    ignore (Sys.opaque_identity (Numerics.Rng.int rng 65024))
  done;
  let words = Gc.minor_words () -. before in
  if words > 0. then
    failwith
      (Printf.sprintf "%d Rng.int draws allocate %.0f minor words (gate 0)"
         alloc_draws words);
  Printf.printf
    "smoke ok: Monte-Carlo trial at %.2f minor words (gate %g) and %.2f \
     major words (gate %g), Rng.int at 0\n"
    per_trial alloc_max_words_per_trial major_per_trial
    alloc_max_major_words_per_trial

(* Numbers become text without allocating: 20k %.10g conversions of
   values spread over 1e-300..1e300, both signs, written into a
   presized block, may allocate no minor word.  Every normal double takes
   [Output.Num_text]'s scaled path but a near-tie (a subnormal or a
   non-finite value aside), and only that runtime fallback returns a
   fresh string.  The values are ten random significant digits at a
   random decimal exponent, so none is a near-tie at ten digits; a
   log-uniform draw holds about one in 10^4.  Counted with
   [Gc.minor_words], like the gate above. *)
let format_values = 20_000

let format_gate () =
  let rng = Numerics.Rng.create 2003 in
  let values =
    List.init format_values (fun _ ->
        let digits = 1_000_000_000 + Numerics.Rng.int rng 9_000_000_000 in
        float_of_string
          (Printf.sprintf "%s%de%d"
             (if Numerics.Rng.int rng 2 = 0 then "" else "-")
             digits
             (Numerics.Rng.int rng 601 - 309)))
  in
  let write = Output.Num_text.write_general ~digits:10 in
  let blk = Output.Num_text.block (24 * format_values) and pos = ref 0 in
  (* the closure is allocated before the count starts *)
  let append x = pos := write blk !pos x in
  let before = Gc.minor_words () in
  List.iter append values;
  let words = Gc.minor_words () -. before in
  if words > 0. then
    failwith
      (Printf.sprintf "%d %%.10g conversions allocate %.0f minor words (gate 0)"
         format_values words);
  print_endline "smoke ok: %.10g formatting at 0 minor words per value (gate 0)"

(* Rendering every figure and the cost landscape, as the figures
   executable renders them (Chart.save, Csv.write_series,
   Ascii_chart.plot, Heatmap.save, into a temporary directory), may
   allocate at most 24 words per plotted point: the numbers' text and
   the buffers it grows in, not a list, pair or boxed float per point.
   The figures are computed and their axes drawn before the count
   starts.  Counted with [Gc.allocated_bytes], which is deterministic,
   so the gate cannot flake. *)
let max_render_words_per_point = 24.

let render_gate () =
  let module E = Engine.Experiments in
  let figures = E.all_figures () @ E.extension_figures ()
  and surface = E.cost_landscape () in
  let coords f (fig : E.figure) =
    Array.concat (List.map (fun (s : E.series) -> Array.map f s.points) fig.series)
  in
  let charts =
    List.map
      (fun (fig : E.figure) ->
        let data = Output.Axis.of_data (coords snd fig) in
        let y_axis =
          Output.Axis.create
            ~lo:(Option.value fig.y_min ~default:(Output.Axis.lo data))
            ~hi:(Option.value fig.y_max ~default:(Output.Axis.hi data))
            ()
        in
        ( fig,
          { Output.Chart.title = fig.title;
            x_label = fig.x_label;
            y_label = fig.y_label;
            x_axis = Output.Axis.of_data ~pad:0. (coords fst fig);
            y_axis;
            series =
              List.map
                (fun (s : E.series) -> Output.Chart.series ~label:s.label s.points)
                fig.series },
          List.map (fun (s : E.series) -> (s.label, s.points)) fig.series ))
      figures
  and heatmap =
    { Output.Heatmap.title = "log10 C(n, r) landscape (figure2 scenario)";
      x_label = "r (s)";
      y_label = "n";
      x_ticks = Array.map (Printf.sprintf "%.2g") surface.rs;
      y_ticks = Array.map string_of_int surface.ns;
      values = surface.log10_cost }
  and dir = Filename.temp_dir "smoke_render" "" in
  let points =
    List.fold_left
      (fun acc (_, _, named) ->
        List.fold_left (fun acc (_, pts) -> acc + Array.length pts) acc named)
      (Array.length surface.ns * Array.length surface.rs)
      charts
  and path name = Filename.concat dir name in
  let before = Gc.allocated_bytes () in
  List.iter
    (fun ((fig : E.figure), chart, named) ->
      Output.Chart.save chart (path (fig.id ^ ".svg"));
      Output.Csv.write_series ~path:(path (fig.id ^ ".csv")) ~x_label:fig.x_label
        named;
      ignore
        (Output.Ascii_chart.plot ~x_axis:chart.x_axis ~y_axis:chart.y_axis
           ~title:fig.title named))
    charts;
  Output.Heatmap.save heatmap (path "cost_landscape.svg");
  let words =
    (Gc.allocated_bytes () -. before)
    /. float_of_int (Sys.word_size / 8)
    /. float_of_int points
  in
  Array.iter (fun name -> Sys.remove (path name)) (Sys.readdir dir);
  Sys.rmdir dir;
  Printf.printf
    "smoke %s: figure render at %.1f words per plotted point, %d points (gate %g)\n"
    (if words <= max_render_words_per_point then "ok" else "FAIL")
    words points max_render_words_per_point;
  if words > max_render_words_per_point then
    failwith
      (Printf.sprintf
         "the figure render allocates %.1f words per plotted point (gate %g)"
         words max_render_words_per_point)

let () =
  if Array.to_list Sys.argv = [ Sys.argv.(0); "--smoke" ] then begin
    Exec.Pool.set_jobs 1;
    smoke ();
    point_gates ();
    count_gates ();
    pipeline_gate ();
    kernel_gate ();
    survival_gate ();
    execute_gate ();
    optimizer_gate ();
    alloc_gate ();
    format_gate ();
    render_gate ()
  end
  else begin
    prerr_endline
      "usage: main.exe --smoke  (the reproduction report is `zeroconf_cli \
       reproduce`)";
    exit 2
  end
