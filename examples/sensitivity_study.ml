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

  (* The delay knobs of the scenario's shifted-exponential F_X: the loss
     1 - l, the reply rate lambda and the round trip d, each rebuilding
     the distribution with the other two held at their baselines. *)
  let loss = 1e-5 and rate = 10. and delay = 1. in
  let rebuild ~loss ~rate ~delay p =
    Zeroconf.Params.with_delay p
      (Dist.Families.shifted_exponential ~mass:(1. -. loss) ~rate ~delay ())
  in
  let knobs =
    Zeroconf.Sensitivity.standard_knobs scenario
    @ [ { Zeroconf.Sensitivity.name = "loss"; value = loss;
          apply = (fun p v -> rebuild ~loss:v ~rate ~delay p) };
        { name = "lambda"; value = rate;
          apply = (fun p v -> rebuild ~loss ~rate:v ~delay p) };
        { name = "rtt"; value = delay;
          apply = (fun p v -> rebuild ~loss ~rate ~delay:v p) } ]
  in

  (* Local elasticities: % change in output per % change in input.  The
     error probability's goes through log10 E, which stays meaningful
     where E itself underflows: a central difference in ln x. *)
  let error_elasticity (k : Zeroconf.Sensitivity.knob) =
    let log10_error u =
      Zeroconf.Reliability.log10_error_probability (k.apply scenario (exp u))
        ~n ~r
    in
    let u = log k.value in
    let h = (epsilon_float ** (1. /. 3.)) *. Float.max 1. (Float.abs u) in
    (log10_error (u +. h) -. log10_error (u -. h)) /. (2. *. h) *. Float.log 10.
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

  (* Tornado: swing each input by 4x and watch the optimal cost, the
     widest range first. *)
  Format.printf "Tornado on the *optimal* cost (inputs swung 4x down/up):@.";
  let output p = (Zeroconf.Optimize.global_optimum p).Zeroconf.Optimize.cost in
  let base = output scenario in
  let entries =
    List.stable_sort
      (fun (_, lo, hi) (_, lo', hi') ->
        Float.compare (Float.abs (hi' -. lo')) (Float.abs (hi -. lo)))
      (List.map
         (fun (k : Zeroconf.Sensitivity.knob) ->
           ( k.name,
             output (k.apply scenario (k.value /. 4.)),
             output (k.apply scenario (k.value *. 4.)) ))
         knobs)
  in
  let table =
    Output.Table.create
      ~columns:
        [ ("parameter", Output.Table.Left); ("low", Output.Table.Right);
          ("base", Output.Table.Right); ("high", Output.Table.Right);
          ("range", Output.Table.Right) ]
  in
  List.iter
    (fun (name, low, high) ->
      Output.Table.add_row table
        [ name;
          Printf.sprintf "%.3f" low;
          Printf.sprintf "%.3f" base;
          Printf.sprintf "%.3f" high;
          Printf.sprintf "%.3f" (Float.abs (high -. low)) ])
    entries;
  print_string (Output.Table.to_text table);
  Format.printf
    "@.Reading: postage and round-trip delay dominate the achievable \
     cost;@.the error cost E matters surprisingly little once n clears \
     nu — exactly@.the paper's point that reliability is cheap but not \
     free.@."
