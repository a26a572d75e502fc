let resolve_cache = function
  | Some _ as c -> c
  | None -> if Cache.enabled () then Some Cache.default else None

(* every route, in dispatch order; misses are grouped so each backend
   sees one eval_batch call per run_batch *)
let routes = [ Plan.Kernel; Plan.Analytic; Plan.Dtmc; Plan.Mc ]

let run_batch ?cache (plans : Plan.t array) =
  let cache = resolve_cache cache in
  let out = Array.make (Array.length plans) None in
  let misses = ref [] in
  let followers = ref [] in
  (* key-duplicates within one batch: with a cache active only the
     first occurrence is evaluated; the rest replay its stored answer
     below, counted as hits.  Without a cache the backends still
     amortize duplicates (shared cursor stops cost zero extra work). *)
  let seen = Hashtbl.create (Array.length plans) in
  Array.iteri
    (fun i pl ->
      match cache with
      | Some c ->
          let key = Plan.key pl in
          if Hashtbl.mem seen key then followers := (i, key) :: !followers
          else (
            match Cache.lookup c pl with
            | Some a -> out.(i) <- Some a
            | None ->
                Hashtbl.add seen key i;
                misses := i :: !misses)
      | None -> misses := i :: !misses)
    plans;
  let misses = List.rev !misses in
  List.iter
    (fun route ->
      match
        List.filter (fun i -> plans.(i).Plan.route = route) misses
        |> Array.of_list
      with
      | [||] -> ()
      | idxs ->
          let (module B : Backend.S) = Planner.backend_of_route route in
          let answers = B.eval_batch (Array.map (fun i -> plans.(i)) idxs) in
          Array.iteri
            (fun j i ->
              let a = answers.(j) in
              (match cache with
              | Some c -> Cache.store c plans.(i) a
              | None -> ());
              out.(i) <- Some a)
            idxs)
    routes;
  List.iter
    (fun (i, key) ->
      match cache with
      | None -> assert false
      | Some c -> (
          match Cache.lookup c plans.(i) with
          | Some a -> out.(i) <- Some a
          | None -> (
              (* capacity reset evicted the representative mid-batch:
                 replay its in-flight answer directly *)
              match out.(Hashtbl.find seen key) with
              | Some a -> out.(i) <- Some { a with Answer.cached = true }
              | None -> assert false)))
    (List.rev !followers);
  Array.map (function Some a -> a | None -> assert false) out

let run ?cache plan = (run_batch ?cache [| plan |]).(0)

let eval_batch ?cache ?backend queries =
  run_batch ?cache (Array.map (Planner.plan ?backend) queries)

let eval ?cache ?backend query =
  run ?cache (Planner.plan ?backend query)
