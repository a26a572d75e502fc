(* What [gen] and [trace] share: the batch lines the generator writes,
   read back into queries, and the closed forms outputs are checked
   against.

   The generator writes a subset of the [zeroconf_cli batch] grammar:
   [QUANTITY scenario=NAME n=INT r=FLOAT] for a point and
   [QUANTITY scenario=NAME ns=LO:HI r=FLOAT] for an n-sweep.  [r] is
   printed in round-trip [%.17g], so the CLI, the traced replay and
   the closed forms all see the same float. *)

(* crosscheck runs the EXPERIMENTS.md V4 draft point on every preset *)
let crosscheck_n = 4
let crosscheck_r = 2.

let preset name =
  match List.assoc_opt name Zeroconf.Params.presets with
  | Some p -> p
  | None -> failwith ("unknown scenario " ^ name)

let closed_form (quantity : Engine.Query.quantity) p ~n ~r =
  match quantity with
  | Engine.Query.Mean_cost -> Zeroconf.Cost.mean p ~n ~r
  | Engine.Query.Error_probability ->
      Zeroconf.Reliability.error_probability p ~n ~r
  | Engine.Query.Log10_error ->
      Zeroconf.Reliability.log10_error_probability p ~n ~r
  | Engine.Query.Cost_variance | Engine.Query.Latency_mean ->
      invalid_arg "Inputs.closed_form: no closed form for this quantity"

let query_of_line line =
  match String.split_on_char ' ' line with
  | [] -> failwith "empty query line"
  | qname :: fields ->
      let field_opt key =
        List.find_map
          (fun f ->
            match String.index_opt f '=' with
            | Some i when String.sub f 0 i = key ->
                Some (String.sub f (i + 1) (String.length f - i - 1))
            | _ -> None)
          fields
      in
      let field key =
        match field_opt key with
        | Some v -> v
        | None -> failwith (Printf.sprintf "no %s= in %S" key line)
      in
      let quantity =
        match Engine.Query.quantity_of_name qname with
        | Some q -> q
        | None -> failwith ("unknown quantity " ^ qname)
      in
      let scenario = preset (field "scenario") in
      let r = float_of_string (field "r") in
      match field_opt "ns" with
      | Some range ->
          Scanf.sscanf range "%d:%d" (fun lo hi ->
              Engine.Query.n_sweep quantity scenario
                ~ns:(Array.init (hi - lo + 1) (fun i -> lo + i))
                ~r)
      | None ->
          Engine.Query.point quantity scenario ~n:(int_of_string (field "n")) ~r

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let read_queries path =
  Array.of_list (List.map query_of_line (read_lines path))
