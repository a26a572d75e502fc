(* The batch output against a Printf rendering of the same batch.

   [Batch_output.emit] composes its lines in one 64 KiB block, renders
   a run's head once and adds one to n's digits in place for each next
   point.  Here a batch whose output spans several blocks, with the
   first block boundary (byte 65536 of the output) inside a line, is
   emitted, and every line is compared with the one Printf makes from
   the batch's arrays: n-sweeps across 9 -> 10, 99 -> 100 and
   999 -> 1000 (where the head is rendered again), exponents in both
   directions, an r-sweep, and a Monte-Carlo plan's interval lines. *)

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

let () =
  Alcotest.run "batch_output"
    [ ( "emit",
        [ Alcotest.test_case "every line = Printf across blocks" `Quick
            test_emit_equals_printf ] ) ]
