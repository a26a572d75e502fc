type config = {
  probes : int;
  listen : float;
  probe_cost : float;
  error_cost : float;
  immediate_abort : bool;
  rate_limit : (int * float) option;
  avoid_failed : bool;
  announce : (int * float) option;
}

let drm_config ~n ~r ~probe_cost ~error_cost =
  { probes = n;
    listen = r;
    probe_cost;
    error_cost;
    immediate_abort = false;
    rate_limit = None;
    avoid_failed = false;
    announce = None }

type t = {
  engine : Engine.t;
  link : Link.t;
  pool : Address_pool.t;
  rng : Numerics.Rng.t;
  config : config;
  on_done : Metrics.outcome -> unit;
  start_time : float;
  mutable station : int;
  mutable epoch : int;      (* bumps on every restart; stale events no-op *)
  mutable candidate : int;
  mutable conflict : bool;
  mutable probes_sent : int;
  mutable restarts : int;
  mutable cost : float;
  mutable finished : bool;
  failed : (int, unit) Hashtbl.t;
      (* addresses that drew a defence, never retried when the config
         says to avoid them (draft detail (a), paper Sec. 3.1) *)
}


let validate config =
  if config.probes < 1 then invalid_arg "Newcomer: probes < 1";
  if config.listen < 0. then invalid_arg "Newcomer: negative listen period";
  if config.probe_cost < 0. || config.error_cost < 0. then
    invalid_arg "Newcomer: negative cost"

let announce t =
  match t.config.announce with
  | None -> ()
  | Some (count, interval) ->
      (* gratuitous ARPs after acceptance (the draft's ANNOUNCE phase):
         they warn hosts still probing for this address *)
      for k = 1 to count do
        Engine.schedule t.engine
          ~after:(float_of_int (k - 1) *. interval)
          (fun () ->
            Link.broadcast t.link ~sender:t.station
              (Packet.Arp_reply { sender = t.station; address = t.candidate }))
      done

let finish t =
  if not t.finished then begin
    t.finished <- true;
    Link.detach t.link t.station;
    let collided = Address_pool.is_occupied t.pool t.candidate in
    if collided then t.cost <- t.cost +. t.config.error_cost
    else Address_pool.claim t.pool t.candidate;
    if not collided then announce t;
    t.on_done
      { Metrics.address = t.candidate;
        collided;
        probes_sent = t.probes_sent;
        restarts = t.restarts;
        config_time = Engine.now t.engine -. t.start_time;
        cost = t.cost }
  end

let rec begin_attempt t =
  t.epoch <- t.epoch + 1;
  t.conflict <- false;
  let draw () = Address_pool.random_candidate t.pool ~rng:t.rng in
  let candidate = ref (draw ()) in
  if t.config.avoid_failed then begin
    (* rejection-sample around the blacklist; give up if it somehow
       covers (almost) the whole space *)
    let guard = ref 0 in
    while Hashtbl.mem t.failed !candidate && !guard < 10_000 do
      candidate := draw ();
      incr guard
    done
  end;
  t.candidate <- !candidate;
  send_probe t ~epoch:t.epoch ~k:1

and send_probe t ~epoch ~k =
  if epoch = t.epoch && not t.finished then begin
    t.probes_sent <- t.probes_sent + 1;
    (* the draft randomizes the inter-probe spacing (PROBE_MIN..PROBE_MAX);
       the paper's model, and this simulator, fix it at r *)
    t.cost <- t.cost +. t.config.listen +. t.config.probe_cost;
    Link.broadcast t.link ~sender:t.station
      (Packet.Arp_probe { sender = t.station; address = t.candidate });
    Engine.schedule t.engine ~after:t.config.listen (fun () ->
        period_end t ~epoch ~k)
  end

and period_end t ~epoch ~k =
  if epoch = t.epoch && not t.finished then begin
    if t.conflict then restart t
    else if k >= t.config.probes then finish t
    else send_probe t ~epoch ~k:(k + 1)
  end

and restart t =
  t.restarts <- t.restarts + 1;
  if t.config.avoid_failed && t.candidate >= 0 then
    Hashtbl.replace t.failed t.candidate ();
  let delay =
    match t.config.rate_limit with
    | Some (threshold, wait) when t.restarts >= threshold -> wait
    | Some _ | None -> 0.
  in
  if delay > 0. then begin
    (* freeze this attempt: bump epoch so pending events die, then wait;
       waiting time is charged at the model's 1:1 time-to-cost rate *)
    t.epoch <- t.epoch + 1;
    t.cost <- t.cost +. delay;
    Engine.schedule t.engine ~after:delay (fun () -> begin_attempt t)
  end
  else begin_attempt t

let handle_packet t packet =
  if (not t.finished) && Packet.address packet = t.candidate then
    match packet with
    | Packet.Arp_reply _ ->
        if not t.conflict then begin
          t.conflict <- true;
          if t.config.immediate_abort then restart t
        end
    | Packet.Arp_probe { sender; _ } when sender <> t.station ->
        (* someone else is probing for our candidate: conflict per draft *)
        if not t.conflict then begin
          t.conflict <- true;
          if t.config.immediate_abort then restart t
        end
    | Packet.Arp_probe _ -> ()

let start ~engine ~link ~pool ~rng ~config ~on_done () =
  validate config;
  let t =
    { engine;
      link;
      pool;
      rng;
      config;
      on_done;
      start_time = Engine.now engine;
      station = -1;
      epoch = 0;
      candidate = -1;
      conflict = false;
      probes_sent = 0;
      restarts = 0;
      cost = 0.;
      finished = false;
      failed = Hashtbl.create 8 }
  in
  t.station <- Link.attach link (fun packet -> handle_packet t packet);
  Engine.schedule engine ~after:0. (fun () -> begin_attempt t);
  t
