type pattern =
  | Poisson of float
  | Flash of { count : int; within : float }
  | Periodic of float

type result = {
  arrivals : int;
  outcomes : Metrics.outcome array;
  collisions : int;
  all_unique : bool;
  last_completion : float;
  mean_config_time : float;
}

let arrival_times ~pattern ~horizon ~rng =
  match pattern with
  | Poisson rate ->
      if rate <= 0. then invalid_arg "Workload: Poisson rate <= 0";
      let rec collect t acc =
        let t = t +. Numerics.Rng.exponential rng ~rate in
        if t > horizon then List.rev acc else collect t (t :: acc)
      in
      collect 0. []
  | Flash { count; within } ->
      if count < 0 || within < 0. then invalid_arg "Workload: bad flash";
      List.sort Float.compare
        (List.init count (fun _ -> Numerics.Rng.uniform rng ~lo:0. ~hi:within))
  | Periodic every ->
      if every <= 0. then invalid_arg "Workload: period <= 0";
      let n = int_of_float (horizon /. every) in
      List.init n (fun i -> float_of_int (i + 1) *. every)

let check_capacity ~pattern ~horizon ~initial ~pool_size =
  let arrivals =
    match pattern with
    | Poisson rate -> rate *. horizon
    | Flash { count; _ } -> float_of_int count
    | Periodic every -> horizon /. every
  in
  (* written so that a NaN count is refused too *)
  if not (float_of_int initial +. arrivals < float_of_int pool_size) then
    invalid_arg
      (Printf.sprintf
         "Workload: %d configured hosts and %g arrivals do not fit a pool of %d"
         initial arrivals pool_size)

let run ~pattern ~horizon ~loss ~one_way ?(initial = 0) ?pool_size ~config ~rng
    () =
  if horizon <= 0. then invalid_arg "Workload.run: horizon <= 0";
  let engine = Engine.create () in
  let pool = Address_pool.create ?size:pool_size () in
  let link = Link.create ~engine ~rng ~loss ~one_way in
  for _ = 1 to initial do
    let address = Address_pool.claim_random_free pool ~rng in
    ignore (Host.create ~engine ~link ~rng ~address ())
  done;
  let times = arrival_times ~pattern ~horizon ~rng in
  if initial + List.length times >= Address_pool.size pool then
    failwith "Workload.run: address pool would be exhausted";
  let finished = ref [] in
  let completions = ref 0 in
  List.iter
    (fun time ->
      Engine.schedule_at engine ~time (fun () ->
          ignore
            (Newcomer.start ~engine ~link ~pool ~rng ~config
               ~on_done:(fun outcome ->
                 incr completions;
                 finished := (outcome, Engine.now engine) :: !finished;
                 if not outcome.Metrics.collided then
                   ignore
                     (Host.create ~engine ~link ~rng
                        ~address:outcome.Metrics.address ()))
               ())))
    times;
  Engine.run engine;
  let entries = Array.of_list (List.rev !finished) in
  let outcomes = Array.map fst entries in
  let collisions =
    Array.fold_left
      (fun acc (o : Metrics.outcome) -> if o.Metrics.collided then acc + 1 else acc)
      0 outcomes
  in
  let module Iset = Set.Make (Int) in
  let accepted =
    Array.fold_left
      (fun acc (o : Metrics.outcome) -> Iset.add o.Metrics.address acc)
      Iset.empty outcomes
  in
  { arrivals = List.length times;
    outcomes;
    collisions;
    all_unique = Iset.cardinal accepted = Array.length outcomes;
    last_completion =
      Array.fold_left (fun acc (_, t) -> Float.max acc t) 0. entries;
    mean_config_time =
      (if Array.length outcomes = 0 then 0.
       else
         Numerics.Safe_float.mean
           (Array.map (fun (o : Metrics.outcome) -> o.Metrics.config_time) outcomes)) }
