let routes = [| Plan.Kernel; Plan.Analytic; Plan.Dtmc; Plan.Mc |]

(* each backend sees one eval_columns call, on its plans in batch
   order, after a pass that finds the routes in use *)
let execute (b : Batch.t) =
  Batch.prepare b;
  let used = ref 0 in
  for p = 0 to b.plans - 1 do
    used := !used lor (1 lsl Plan.route_index b.route.(p))
  done;
  Array.iter
    (fun route ->
      if !used land (1 lsl Plan.route_index route) <> 0 then begin
        let (module B : Backend.S) = Planner.backend_of_route route in
        B.eval_columns b
      end)
    routes

(* one plan per (quantity, r), each one run n = lo .. hi: every kernel
   column's runs are the quantities at one r *)
let n_sweeps quantities p ~lo ~hi rs =
  if hi < lo then invalid_arg "Executor.n_sweeps: empty n range";
  let plans = Array.length quantities * Array.length rs in
  let b = Batch.create ~plans ~runs:plans and sid = Plan.scenario_id p in
  Array.iter
    (fun quantity ->
      let route =
        match Planner.route quantity ~sampled:false ~max_n:hi with
        | Some route -> route
        | None ->
            invalid_arg
              ("Executor.n_sweeps: no route serves "
              ^ Query.quantity_name quantity)
      in
      for j = 0 to Array.length rs - 1 do
        Batch.add_plan b quantity sid route ~trials:0 ~seed:0 ~line:0;
        Batch.add_run b ~lo ~hi rs j;
        Batch.validate_last b p ~sampled:false
      done)
    quantities;
  execute b;
  b.value

let run_batch plans =
  let b = Batch.of_plans plans in
  execute b;
  Batch.answers b plans

let run plan = (run_batch [| plan |]).(0)

let eval_batch queries = run_batch (Array.map Planner.plan queries)

let eval ?backend query = run (Planner.plan ?backend query)
