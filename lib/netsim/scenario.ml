(* One aggregate-mode configuration run, sampling reply delays straight
   from F_X with the DRM's period-boundary semantics (Sec. 3.1).
   Occupancy is revealed one candidate at a time (the .mli says why the
   law is exact), so a trial's work is O(attempts), not O(occupied). *)
let aggregate_trial ~(delay : Dist.Distribution.t) ~size ~occupied ~rng
    ~(config : Newcomer.config) =
  let n = config.Newcomer.probes and r = config.Newcomer.listen in
  let step_cost = r +. config.Newcomer.probe_cost in
  let probes = ref 0 and restarts = ref 0 in
  let cost = ref 0. and time = ref 0. in
  (* candidate -> occupied, for every candidate revealed so far *)
  let revealed = Hashtbl.create 8 in
  let seen_occupied = ref 0 in
  let is_occupied candidate =
    match Hashtbl.find_opt revealed candidate with
    | Some busy -> busy
    | None ->
        let seen = Hashtbl.length revealed in
        let busy =
          Numerics.Rng.int rng (size - seen) < occupied - !seen_occupied
        in
        Hashtbl.add revealed candidate busy;
        if busy then incr seen_occupied;
        busy
  in
  (* every occupied candidate but an accepted one drew a defence, so
     "failed" is "revealed occupied" while the trial runs *)
  let failed candidate = Hashtbl.find_opt revealed candidate = Some true in
  let draw_candidate () =
    let c = ref (Numerics.Rng.int rng size) in
    if config.Newcomer.avoid_failed then begin
      let guard = ref 0 in
      while failed !c && !guard < 10_000 do
        c := Numerics.Rng.int rng size;
        incr guard
      done
    end;
    !c
  in
  let rate_limit_delay () =
    match config.Newcomer.rate_limit with
    | Some (threshold, delay) when !restarts >= threshold -> delay
    | Some _ | None -> 0.
  in
  let rec attempt () =
    let candidate = draw_candidate () in
    if not (is_occupied candidate) then begin
      (* nobody answers: all n probes go out, then the address is kept *)
      probes := !probes + n;
      cost := !cost +. (float_of_int n *. step_cost);
      time := !time +. (float_of_int n *. r);
      (candidate, false)
    end
    else begin
      (* the owner may answer any of the n probes; probe i goes out at
         relative time (i-1) r and its reply lands X_i later *)
      let first_arrival = ref infinity in
      for i = 1 to n do
        match delay.sample rng with
        | None -> ()
        | Some x ->
            let arrival = (float_of_int (i - 1) *. r) +. x in
            if arrival < !first_arrival then first_arrival := arrival
      done;
      if !first_arrival > float_of_int n *. r then begin
        (* no reply within the protocol's horizon: collision accepted *)
        probes := !probes + n;
        cost := !cost +. (float_of_int n *. step_cost) +. config.Newcomer.error_cost;
        time := !time +. (float_of_int n *. r);
        (candidate, true)
      end
      else begin
        (* reply lands in period k: k probes were sent, attempt aborts *)
        let k = int_of_float (Float.ceil (!first_arrival /. r)) in
        let k = max 1 (min n k) in
        probes := !probes + k;
        cost := !cost +. (float_of_int k *. step_cost);
        time :=
          !time
          +.
          if config.Newcomer.immediate_abort then !first_arrival
          else float_of_int k *. r;
        incr restarts;
        let delay = rate_limit_delay () in
        time := !time +. delay;
        cost := !cost +. delay;
        attempt ()
      end
    end
  in
  let address, collided = attempt () in
  { Metrics.address;
    collided;
    probes_sent = !probes;
    restarts = !restarts;
    config_time = !time;
    cost = !cost }

let occupy_pool pool ~occupied ~rng =
  if occupied < 0 || occupied >= Address_pool.size pool then
    invalid_arg "Scenario: occupied outside [0, pool size)";
  let addresses = ref [] in
  for _ = 1 to occupied do
    addresses := Address_pool.claim_random_free pool ~rng :: !addresses
  done;
  !addresses

let run_aggregate ~delay ~occupied ?(pool_size = Address_pool.default_size)
    ~config ~trials ~rng () =
  if trials < 1 then invalid_arg "Scenario.run_aggregate: trials < 1";
  if pool_size < 1 then invalid_arg "Scenario.run_aggregate: pool_size < 1";
  if occupied < 0 || occupied >= pool_size then
    invalid_arg "Scenario.run_aggregate: occupied outside [0, pool size)";
  Array.init trials (fun _ ->
      aggregate_trial ~delay ~size:pool_size ~occupied ~rng ~config)

let detailed_trial ~loss ~one_way ?processing ?deaf_prob ~occupied ?pool_size
    ~config ~rng ~tracer () =
  let engine = Engine.create () in
  Engine.set_tracer engine tracer;
  let pool = Address_pool.create ?size:pool_size () in
  let link = Link.create ~engine ~rng ~loss ~one_way in
  let addresses = occupy_pool pool ~occupied ~rng in
  List.iter
    (fun address ->
      ignore (Host.create ~engine ~link ~rng ?processing ?deaf_prob ~address ()))
    addresses;
  let result = ref None in
  let _newcomer =
    Newcomer.start ~engine ~link ~pool ~rng ~config
      ~on_done:(fun outcome -> result := Some outcome)
      ()
  in
  Engine.run engine;
  match !result with
  | Some outcome -> outcome
  | None -> failwith "Scenario.detailed_trial: newcomer never finished"

let run_detailed ~loss ~one_way ?processing ?deaf_prob ~occupied ?pool_size
    ~config ~trials ~rng () =
  if trials < 1 then invalid_arg "Scenario.run_detailed: trials < 1";
  Array.init trials (fun _ ->
      detailed_trial ~loss ~one_way ?processing ?deaf_prob ~occupied ?pool_size
        ~config ~rng ~tracer:None ())

let trace_one ~loss ~one_way ?processing ~occupied ?pool_size ~config ~rng () =
  let log = ref [] in
  let tracer = Some (fun time line -> log := (time, line) :: !log) in
  let outcome =
    detailed_trial ~loss ~one_way ?processing ~occupied ?pool_size ~config ~rng
      ~tracer ()
  in
  (outcome, List.rev !log)
