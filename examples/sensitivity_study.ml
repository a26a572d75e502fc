(* The paper's conclusion stresses that the optimized parameters depend
   on application-specific inputs (loss rate, network size, cost
   estimates) that designers can only guess.  This study quantifies how
   much each input matters, at the draft's operating point.

     dune exec examples/sensitivity_study.exe
*)

let () =
  let scenario = Zeroconf.Params.wireless_worst_case in
  let n = 4 and r = 2. in
  Format.printf "%a@.operating point: n = %d, r = %g@.@." Zeroconf.Params.pp
    scenario n r;

  let knobs =
    Zeroconf.Sensitivity.standard_knobs scenario
    @ Zeroconf.Sensitivity.shifted_exp_knobs ~loss:1e-5 ~rate:10. ~delay:1.
  in

  (* Local elasticities: % change in output per % change in input.  The
     error probability's goes through log10 E, which stays meaningful
     where E itself underflows. *)
  let error_elasticity (k : Zeroconf.Sensitivity.knob) =
    let log10_error u =
      Zeroconf.Reliability.log10_error_probability (k.apply scenario (exp u))
        ~n ~r
    in
    Numerics.Derivative.central ~f:log10_error (log k.value) *. Float.log 10.
  in
  Format.printf "Elasticities at the operating point:@.";
  let table =
    Output.Table.create
      ~columns:
        [ ("parameter", Output.Table.Left); ("value", Output.Table.Right);
          ("d ln C / d ln x", Output.Table.Right);
          ("d ln E / d ln x", Output.Table.Right) ]
  in
  List.iter
    (fun (k : Zeroconf.Sensitivity.knob) ->
      Output.Table.add_row table
        [ k.name;
          Printf.sprintf "%.3g" k.value;
          Printf.sprintf "%+.4f" (Zeroconf.Sensitivity.cost_elasticity scenario k ~n ~r);
          Printf.sprintf "%+.4f" (error_elasticity k) ])
    knobs;
  print_string (Output.Table.to_text table);
  print_newline ();

  (* Tornado: swing each input by 4x and watch the optimal cost. *)
  Format.printf "Tornado on the *optimal* cost (inputs swung 4x down/up):@.";
  let output p = (Zeroconf.Optimize.global_optimum p).Zeroconf.Optimize.cost in
  let entries = Zeroconf.Sensitivity.tornado ~swing:4. ~output scenario knobs in
  let table =
    Output.Table.create
      ~columns:
        [ ("parameter", Output.Table.Left); ("low", Output.Table.Right);
          ("base", Output.Table.Right); ("high", Output.Table.Right);
          ("range", Output.Table.Right) ]
  in
  List.iter
    (fun (e : Zeroconf.Sensitivity.tornado_entry) ->
      Output.Table.add_row table
        [ e.knob_name;
          Printf.sprintf "%.3f" e.low;
          Printf.sprintf "%.3f" e.base;
          Printf.sprintf "%.3f" e.high;
          Printf.sprintf "%.3f" (Float.abs (e.high -. e.low)) ])
    entries;
  print_string (Output.Table.to_text table);
  Format.printf
    "@.Reading: postage and round-trip delay dominate the achievable \
     cost;@.the error cost E matters surprisingly little once n clears \
     nu — exactly@.the paper's point that reliability is cheap but not \
     free.@."
