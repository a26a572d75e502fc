(* every route, in dispatch order: each backend sees one eval_batch
   call per run_batch, on its plans in input order *)
let routes = [| Plan.Kernel; Plan.Analytic; Plan.Dtmc; Plan.Mc |]

let route_index = function
  | Plan.Kernel -> 0
  | Plan.Analytic -> 1
  | Plan.Dtmc -> 2
  | Plan.Mc -> 3

let eval_route route plans =
  let (module B : Backend.S) = Planner.backend_of_route route in
  B.eval_batch plans

let run_batch (plans : Plan.t array) =
  let len = Array.length plans in
  if len = 0 then [||]
  else begin
    let route = plans.(0).Plan.route in
    if Array.for_all (fun (pl : Plan.t) -> pl.route = route) plans then
      eval_route route plans
    else begin
      (* a stable counting sort by route: [slot.(i)] is plan i's index
         within its route's batch *)
      let count = Array.make (Array.length routes) 0
      and slot = Array.make len 0 in
      Array.iteri
        (fun i (pl : Plan.t) ->
          let g = route_index pl.route in
          slot.(i) <- count.(g);
          count.(g) <- count.(g) + 1)
        plans;
      let batches = Array.map (fun c -> Array.make c plans.(0)) count in
      Array.iteri
        (fun i (pl : Plan.t) ->
          batches.(route_index pl.route).(slot.(i)) <- pl)
        plans;
      let answers =
        Array.mapi
          (fun g batch ->
            if Array.length batch = 0 then [||] else eval_route routes.(g) batch)
          batches
      in
      Array.mapi
        (fun i (pl : Plan.t) -> answers.(route_index pl.route).(slot.(i)))
        plans
    end
  end

let run plan = (run_batch [| plan |]).(0)

let eval_batch ?backend queries =
  run_batch (Array.map (Planner.plan ?backend) queries)

let eval ?backend query = run (Planner.plan ?backend query)
