let routes = [| Plan.Kernel; Plan.Analytic; Plan.Dtmc; Plan.Mc |]

let route_index = function
  | Plan.Kernel -> 0
  | Plan.Analytic -> 1
  | Plan.Dtmc -> 2
  | Plan.Mc -> 3

(* a stable counting sort of the plans by route; each backend sees one
   eval_columns call, on its plans in batch order *)
let execute (b : Batch.t) =
  Batch.prepare b;
  let count = Array.make (Array.length routes) 0 in
  for p = 0 to b.plans - 1 do
    let g = route_index b.route.(p) in
    count.(g) <- count.(g) + 1
  done;
  let routed = Array.map (fun c -> Array.make c 0) count in
  Array.fill count 0 (Array.length count) 0;
  for p = 0 to b.plans - 1 do
    let g = route_index b.route.(p) in
    routed.(g).(count.(g)) <- p;
    count.(g) <- count.(g) + 1
  done;
  Array.iteri
    (fun g plans ->
      if Array.length plans > 0 then begin
        let (module B : Backend.S) = Planner.backend_of_route routes.(g) in
        B.eval_columns b plans
      end)
    routed

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
