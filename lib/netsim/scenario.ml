(* The candidates a trial has revealed, each stored as
   [candidate lsl 1 lor busy].  A trial reveals a handful, so a linear
   scan beats hashing; one buffer serves every trial of a run. *)
type revealed = { mutable slots : int array; mutable len : int }

(* 1 revealed occupied, 0 revealed free, -1 not revealed yet *)
let rec find slots len candidate i =
  if i >= len then -1
  else
    let s = slots.(i) in
    if s lsr 1 = candidate then s land 1 else find slots len candidate (i + 1)

let reveal rv candidate busy =
  if rv.len = Array.length rv.slots then begin
    let grown = Array.make (2 * rv.len) 0 in
    Array.blit rv.slots 0 grown 0 rv.len;
    rv.slots <- grown
  end;
  rv.slots.(rv.len) <- (candidate lsl 1) lor Bool.to_int busy;
  rv.len <- rv.len + 1

(* One aggregate-mode configuration run, sampling reply delays straight
   from F_X with the DRM's period-boundary semantics (Sec. 3.1).
   Occupancy is revealed one candidate at a time (the .mli says why the
   law is exact), so a trial's work is O(attempts), not O(occupied).
   Attempts run in a loop over plain local refs, and the trial's cost
   and time go straight into slot [i] of the sample's columns and its
   counts into the sample's totals, so a trial allocates nothing but
   the reply-delay sampler's draws (on occupied candidates only). *)
let aggregate_trial ~(delay : Dist.Distribution.t) ~size ~occupied ~rng
    ~(config : Newcomer.config) ~revealed (sample : Metrics.sample) i =
  let n = config.Newcomer.probes and r = config.Newcomer.listen in
  let step_cost = r +. config.Newcomer.probe_cost in
  let probes = ref 0 and restarts = ref 0 in
  let cost = ref 0. and time = ref 0. in
  revealed.len <- 0;
  let seen_occupied = ref 0 in
  let accepted = ref false and collided = ref false in
  while not !accepted do
    let candidate = ref (Numerics.Rng.int rng size) in
    (* every occupied candidate but an accepted one drew a defence, so
       "failed" is "revealed occupied" while the trial runs *)
    if config.Newcomer.avoid_failed then begin
      let guard = ref 0 in
      while find revealed.slots revealed.len !candidate 0 = 1 && !guard < 10_000
      do
        candidate := Numerics.Rng.int rng size;
        incr guard
      done
    end;
    let candidate = !candidate in
    let busy =
      match find revealed.slots revealed.len candidate 0 with
      | -1 ->
          let busy =
            Numerics.Rng.int rng (size - revealed.len)
            < occupied - !seen_occupied
          in
          reveal revealed candidate busy;
          if busy then incr seen_occupied;
          busy
      | state -> state = 1
    in
    if not busy then begin
      (* nobody answers: all n probes go out, then the address is kept *)
      probes := !probes + n;
      cost := !cost +. (float_of_int n *. step_cost);
      time := !time +. (float_of_int n *. r);
      accepted := true
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
        accepted := true;
        collided := true
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
        let delay =
          match config.Newcomer.rate_limit with
          | Some (threshold, delay) when !restarts >= threshold -> delay
          | Some _ | None -> 0.
        in
        time := !time +. delay;
        cost := !cost +. delay
      end
    end
  done;
  sample.cost.(i) <- !cost;
  sample.config_time.(i) <- !time;
  Metrics.tally sample ~collided:!collided ~probes:!probes ~restarts:!restarts

let run_aggregate ~delay ~occupied ?(pool_size = Address_pool.default_size)
    ~config ~trials ~rng () =
  if trials < 1 then invalid_arg "Scenario.run_aggregate: trials < 1";
  if pool_size < 1 then invalid_arg "Scenario.run_aggregate: pool_size < 1";
  if occupied < 0 || occupied >= pool_size then
    invalid_arg "Scenario.run_aggregate: occupied outside [0, pool size)";
  let revealed = { slots = Array.make 16 0; len = 0 } in
  let sample = Metrics.create trials in
  for i = 0 to trials - 1 do
    aggregate_trial ~delay ~size:pool_size ~occupied ~rng ~config ~revealed
      sample i
  done;
  sample

let detailed_trial ~loss ~one_way ~processing ~occupied ~pool_size ~config
    ~rng () =
  let net =
    Network.create ~loss ~one_way ~processing ~occupied ~pool_size ~rng ()
  in
  let result = ref None in
  let _newcomer =
    Newcomer.start ~engine:net.engine ~link:net.link ~pool:net.pool ~rng
      ~config
      ~on_done:(fun outcome -> result := Some outcome)
      ()
  in
  Engine.run net.engine;
  match !result with
  | Some outcome -> outcome
  | None -> failwith "Scenario.detailed_trial: newcomer never finished"

let run_detailed ~loss ~one_way ~processing ~occupied ~pool_size ~config
    ~trials ~rng () =
  if trials < 1 then invalid_arg "Scenario.run_detailed: trials < 1";
  let sample = Metrics.create trials in
  for i = 0 to trials - 1 do
    Metrics.store sample i
      (detailed_trial ~loss ~one_way ~processing ~occupied ~pool_size ~config
         ~rng ())
  done;
  sample
