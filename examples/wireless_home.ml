(* A consumer-electronics maker is shipping devices for unreliable
   wireless home networks (the paper's r = 2 worst case: loss 1e-5,
   round trip up to a second).  How should the zeroconf parameters be
   chosen, and what does the draft's recommendation cost?

     dune exec examples/wireless_home.exe
*)

let scenario = Zeroconf.Params.wireless_worst_case

let () =
  Format.printf "%a@.@." Zeroconf.Params.pp scenario;

  (* Tabulate the per-n optima: the designer's menu. *)
  let table =
    Output.Table.create
      ~columns:
        [ ("n", Output.Table.Right); ("r_opt", Output.Table.Right);
          ("cost", Output.Table.Right); ("error prob", Output.Table.Right);
          ("config time (s)", Output.Table.Right) ]
  in
  List.iter
    (fun n ->
      let res = Zeroconf.Optimize.optimal_r scenario ~n in
      let r = res.Numerics.Minimize.x in
      Output.Table.add_row table
        [ string_of_int n;
          Printf.sprintf "%.3f" r;
          Printf.sprintf "%.3f" res.Numerics.Minimize.fx;
          Printf.sprintf "%.2e"
            (Zeroconf.Reliability.error_probability scenario ~n ~r);
          Printf.sprintf "%.2f" (float_of_int n *. r) ])
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  print_string (Output.Table.to_text table);
  print_newline ();

  (* The draft's recommendation for unreliable links: n = 4, r = 2. *)
  Format.printf "%a@.@." Zeroconf.Assessment.pp
    (Zeroconf.Assessment.run ~draft_n:4 ~draft_r:2. scenario);

  (* How many probes buy a given reliability?  The least n with
     E(n, 2) <= target, up to 256 probes. *)
  Format.printf "Probes needed for an error target (at r = 2):@.";
  List.iter
    (fun target ->
      let meets n =
        Zeroconf.Reliability.error_probability scenario ~n ~r:2. <= target
      in
      match List.find_opt meets (List.init 256 succ) with
      | Some n -> Format.printf "  E(n, 2) <= %.0e needs n = %d@." target n
      | None -> Format.printf "  E(n, 2) <= %.0e is unreachable@." target)
    [ 1e-6; 1e-12; 1e-21; 1e-40 ]
