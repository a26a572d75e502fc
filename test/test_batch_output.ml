(* The batch output against a Printf rendering of the same batch.

   [Batch_output.emit] composes its lines in one 64 KiB block, renders
   a run's head once and adds one to n's digits in place for each next
   point.  Here a batch whose output spans several blocks, with the
   first block boundary (byte 65536 of the output) inside a line, is
   emitted, and every line is compared with the one Printf makes from
   the batch's arrays: n-sweeps across 9 -> 10, 99 -> 100 and
   999 -> 1000 (where the head is rendered again), exponents in both
   directions, an r-sweep, and a Monte-Carlo plan's interval lines.
   Then the benchmark's line shape, one point per plan (whose head and
   trailer come from templates): every quantity on every preset through
   every exact route that serves it, with evals of one to three
   digits, over more than one block. *)

let queries =
  String.concat "\n"
    [ "mean-cost scenario=figure2 ns=5:1200 r=2";
      "error-probability scenario=realistic-ethernet ns=1:2000 r=0.37";
      "mean-cost scenario=figure2 n=4 r=2 backend=mc trials=500 seed=7";
      "log10-error scenario=wired-worst-case rs=0.1:3:40 n=3";
      "mean-cost scenario=wireless-worst-case ns=990:1010 r=1e-3";
      "error-probability scenario=figure2 rs=0.5:2:3 n=4 backend=mc \
       trials=300 seed=42" ]

let printf_rendering (b : Engine.Batch.t) =
  let buf = Buffer.create 4096 in
  for p = 0 to b.plans - 1 do
    let q = Engine.Query.quantity_name b.quantity.(p)
    and name = (Engine.Batch.scenario b p).Zeroconf.Params.name in
    for t = b.run.(p) to b.run.(p + 1) - 1 do
      for k = b.off.(t) to b.off.(t + 1) - 1 do
        Printf.bprintf buf "%s %s n=%d r=%g " q name
          (b.n_lo.(t) + k - b.off.(t))
          b.r.(t);
        if Engine.Batch.trials b p > 0 then
          Printf.bprintf buf "%g [%g, %g]\n" b.value.(k) b.ci_lo.(k) b.ci_hi.(k)
        else Printf.bprintf buf "%.10g\n" b.value.(k)
      done
    done;
    Printf.bprintf buf "# backend=%s evals=%d\n"
      (Engine.Plan.route_name b.route.(p))
      b.evals.(p)
  done;
  Buffer.contents buf

let emitted b =
  let path = Filename.temp_file "batch_output" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Batch_output.emit oc b);
      In_channel.with_open_bin path In_channel.input_all)

let test_emit_equals_printf () =
  let b = Batch_input.read queries in
  Engine.Executor.execute b;
  let got = emitted b and expected = printf_rendering b in
  Alcotest.(check bool)
    (Printf.sprintf "%d bytes span three blocks" (String.length got))
    true
    (String.length got > 2 * Batch_output.block_bytes);
  Alcotest.(check bool) "the first block boundary falls inside a line" true
    (got.[Batch_output.block_bytes - 1] <> '\n');
  let got = String.split_on_char '\n' got
  and expected = String.split_on_char '\n' expected in
  Alcotest.(check int) "lines" (List.length expected) (List.length got);
  List.iteri
    (fun i (e, g) ->
      if not (String.equal e g) then
        Alcotest.failf "line %d: Printf %S, emit %S" (i + 1) e g)
    (List.combine expected got)

(* One point per line, cycling through every (quantity, preset, exact
   route) the planner serves: the default route (the kernel where it
   serves), backend=analytic and backend=dtmc.  A kernel point at n
   costs n evals, so n up to 999 gives one to three digits; distinct
   random r keep every point on a column of its own.  The other routes
   count one eval or none per point. *)
let point_lines count =
  let rng = Random.State.make [| 46 |] in
  let quantities =
    Engine.Query.
      [ Mean_cost; Error_probability; Log10_error; Cost_variance;
        Latency_mean ]
  and routes = [ None; Some Engine.Plan.Analytic; Some Engine.Plan.Dtmc ] in
  let combos =
    List.concat_map
      (fun q ->
        List.concat_map
          (fun (preset, _) ->
            List.filter_map
              (fun forced ->
                let route, backend =
                  match forced with
                  | None -> (Engine.Planner.route q ~sampled:false ~max_n:60, "")
                  | Some r ->
                      ( (if Engine.Planner.serves r q ~sampled:false ~max_n:60
                         then Some r
                         else None),
                        " backend=" ^ Engine.Plan.route_name r )
                in
                (* only the kernel's evals count steps; elsewhere a point
                   costs O(n) and n stays small *)
                Option.map
                  (fun r ->
                    (q, preset, backend, if r = Engine.Plan.Kernel then 999 else 60))
                  route)
              routes)
          Zeroconf.Params.presets)
      quantities
    |> Array.of_list
  in
  let lines =
    List.init count (fun i ->
        let q, preset, backend, n_max = combos.(i mod Array.length combos) in
        Printf.sprintf "%s scenario=%s n=%d r=%.17g%s"
          (Engine.Query.quantity_name q)
          preset
          (1 + Random.State.int rng n_max)
          (0.05 +. Random.State.float rng 6.)
          backend)
  in
  (Array.length combos, String.concat "\n" lines)

let test_points_equal_printf () =
  let combos, text = point_lines 2400 in
  let b = Batch_input.read text in
  Engine.Executor.execute b;
  let got = emitted b and expected = printf_rendering b in
  Alcotest.(check int) "one plan per line" 2400 b.plans;
  Alcotest.(check bool)
    (Printf.sprintf "%d (quantity, preset, route)s, each several times" combos)
    true
    (combos >= 40 && 2400 >= 10 * combos);
  Alcotest.(check bool)
    (Printf.sprintf "%d bytes span a block boundary" (String.length got))
    true
    (String.length got > Batch_output.block_bytes);
  let digits e = String.length (string_of_int e) in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "some plan has %d-digit evals" d)
        true
        (Array.exists (fun e -> digits e = d) (Array.sub b.evals 0 b.plans)))
    [ 1; 2; 3 ];
  List.iter
    (fun route ->
      Alcotest.(check bool)
        ("some plan ran on " ^ Engine.Plan.route_name route)
        true
        (Array.exists (( = ) route) (Array.sub b.route 0 b.plans)))
    Engine.Plan.[ Kernel; Analytic; Dtmc ];
  if not (String.equal got expected) then
    List.iteri
      (fun i (e, g) ->
        if not (String.equal e g) then
          Alcotest.failf "line %d: Printf %S, emit %S" (i + 1) e g)
      (List.combine
         (String.split_on_char '\n' expected)
         (String.split_on_char '\n' got))

let () =
  Alcotest.run "batch_output"
    [ ( "emit",
        [ Alcotest.test_case "every line = Printf across blocks" `Quick
            test_emit_equals_printf;
          Alcotest.test_case "one-point plans = Printf across blocks" `Quick
            test_points_equal_printf ] ) ]
