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

(* Start a newcomer at each of the ascending virtual times [times] on
   [net]; an accepted newcomer that did not collide starts defending its
   address (when it collided, the original owner defends it). *)
let arrive (net : Network.t) ~config times =
  (* past max_float the mean configuration time would be inf - inf *)
  let n = config.Newcomer.probes and r = config.Newcomer.listen in
  if not (Float.is_finite (float_of_int n *. r)) then
    invalid_arg (Printf.sprintf "Workload: the listening time n r = %d * %g is not finite" n r);
  let finished = ref [] in
  List.iter
    (fun time ->
      Engine.schedule_at net.engine ~time (fun () ->
          ignore
            (Newcomer.start ~engine:net.engine ~link:net.link ~pool:net.pool
               ~rng:net.rng ~config
               ~on_done:(fun outcome ->
                 finished := (outcome, Engine.now net.engine) :: !finished;
                 if not outcome.Metrics.collided then
                   Network.defend net outcome.Metrics.address)
               ())))
    times;
  Engine.run net.engine;
  let entries = Array.of_list (List.rev !finished) in
  let arrivals = List.length times in
  if Array.length entries <> arrivals then
    failwith "Workload: some newcomer never finished";
  let outcomes = Array.map fst entries in
  let module Iset = Set.Make (Int) in
  let accepted =
    Iset.of_seq
      (Seq.map (fun (o : Metrics.outcome) -> o.Metrics.address) (Array.to_seq outcomes))
  in
  { arrivals;
    outcomes;
    collisions =
      Array.fold_left
        (fun acc (o : Metrics.outcome) -> acc + Bool.to_int o.Metrics.collided)
        0 outcomes;
    all_unique = Iset.cardinal accepted = arrivals;
    last_completion =
      Array.fold_left (fun acc (_, t) -> Float.max acc t) 0. entries;
    mean_config_time =
      (if arrivals = 0 then 0.
       else
         Numerics.Safe_float.mean
           (Array.map (fun (o : Metrics.outcome) -> o.Metrics.config_time) outcomes)) }

let run ~pattern ~horizon ~loss ~one_way ~initial ~pool_size ~config ~rng () =
  if horizon <= 0. then invalid_arg "Workload.run: horizon <= 0";
  let net = Network.create ~loss ~one_way ~occupied:initial ~pool_size ~rng () in
  (* drawn after the configured hosts have claimed their addresses *)
  let times = arrival_times ~pattern ~horizon ~rng in
  if initial + List.length times >= Address_pool.size net.pool then
    invalid_arg "Workload.run: address pool would be exhausted";
  arrive net ~config times

(* [newcomers] hosts start configuring at once, at time 0, on a network
   of [occupied] instantly responding hosts *)
let spaced ~loss ~one_way ~occupied ~pool_size ~newcomers ~config ~rng () =
  if newcomers < 1 then invalid_arg "Workload.spaced: newcomers < 1";
  let net = Network.create ~loss ~one_way ~occupied ~pool_size ~rng () in
  (* each newcomer needs a free address, or the last restart forever *)
  if occupied + newcomers > Address_pool.size net.pool then
    invalid_arg "Workload.spaced: address pool would be exhausted";
  arrive net ~config (List.init newcomers (fun _ -> 0.))

let collision_rate_vs_newcomers ~loss ~one_way ~occupied ~pool_size ~config
    ~trials ~counts ~rng () =
  if trials < 1 then
    invalid_arg "Workload.collision_rate_vs_newcomers: trials < 1";
  List.map
    (fun newcomers ->
      (* every replication's generator is split before any draws *)
      let rngs = Array.init trials (fun _ -> Numerics.Rng.split rng) in
      let collided =
        Array.fold_left
          (fun acc rng ->
            let r =
              spaced ~loss ~one_way ~occupied ~pool_size ~newcomers ~config ~rng ()
            in
            acc + r.collisions)
          0 rngs
      in
      (newcomers, float_of_int collided /. float_of_int (trials * newcomers)))
    counts
