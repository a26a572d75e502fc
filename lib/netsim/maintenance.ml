(* One collision, played out on the packet level.

   Setup: the contested address has an incumbent owner (a Host, which
   defends it) and a colliding newcomer that believes the address is
   its own.  Background ARP requests for the address arrive at Poisson
   times; each makes the incumbent broadcast a defence reply.  The
   first such reply the colliding host receives reveals the conflict;
   it then abandons the address and runs the configuration protocol
   again for a fresh one.  Returns the outage window (detection latency
   plus reconfiguration time) and the connections the newcomer opened,
   at [connection_rate] per second, while the collision was latent. *)
let horizon_cap = 1e7

let connection_rate = 0.05

let simulate_collision ?(background_rate = 0.1) ~loss ~one_way ~occupied
    ~pool_size ~config ~rng () =
  if background_rate <= 0. then
    invalid_arg "Maintenance.simulate_collision: background_rate <= 0";
  (* reconfiguring takes n listening periods at least, so a probe
     schedule that reaches the horizon cap below never resolves the
     conflict: refuse it before simulating until the event budget runs
     out *)
  let schedule = float_of_int config.Newcomer.probes *. config.Newcomer.listen in
  if not (schedule < horizon_cap) then
    invalid_arg
      (Printf.sprintf
         "Maintenance.simulate_collision: the probe schedule n r = %g s \
          reaches the %g s horizon cap, so the conflict never resolves"
         schedule horizon_cap);
  let net = Network.create ~loss ~one_way ~occupied ~pool_size ~rng () in
  (* without loss the collider needs a second free address, or restarts forever *)
  if loss = 0. && occupied + 2 > Address_pool.size net.pool then
    invalid_arg "Maintenance.simulate_collision: no free address to reconfigure to";
  let engine = net.engine and link = net.link in
  (* the contested address: give it an incumbent... *)
  let contested = Network.claim net in
  (* ...and a requester that keeps asking for it (background traffic) *)
  let requester = Link.attach link (fun _ -> ()) in
  let rec background () =
    Engine.schedule engine
      ~after:(Numerics.Rng.exponential rng ~rate:background_rate)
      (fun () ->
        Link.broadcast link ~sender:requester
          (Packet.Arp_probe { sender = requester; address = contested });
        background ())
  in
  background ();
  (* the colliding host: listens for any defence of "its" address *)
  let detection_time = ref None in
  let reconfiguration = ref None in
  let collider = ref (-1) in
  let on_packet packet =
    match (packet, !detection_time) with
    | Packet.Arp_reply { address; sender }, None
      when address = contested && sender <> !collider ->
        detection_time := Some (Engine.now engine);
        (* abandon the address, reconfigure from scratch *)
        Link.detach link !collider;
        let started = Engine.now engine in
        ignore
          (Newcomer.start ~engine ~link ~pool:net.pool ~rng ~config
             ~on_done:(fun outcome ->
               reconfiguration :=
                 Some (Engine.now engine -. started, outcome))
             ())
    | _ -> ()
  in
  collider := Link.attach link on_packet;
  (* run until the collider has reconfigured (cap the horizon against
     pathological loss rates) *)
  let horizon = ref 1000. in
  while !reconfiguration = None && !horizon < horizon_cap do
    Engine.run ~until:!horizon engine;
    horizon := !horizon *. 10.
  done;
  match (!detection_time, !reconfiguration) with
  | Some detected, Some (reconf_time, _) ->
      let connections =
        (* connections opened while the collision was latent *)
        int_of_float (Float.round (detected *. connection_rate))
      in
      (detected +. reconf_time, connections)
  | _ -> failwith "Maintenance.simulate_collision: conflict never resolved"

type cost_estimate = {
  trials : int;
  disruption : Numerics.Stats.summary;
  mean_broken : float;
  suggested_error_cost : float;
}

(* the price of one broken connection, in waiting-seconds *)
let per_connection = 30.

let estimate_error_cost ?background_rate ~loss ~one_way ~occupied ~pool_size
    ~config ~trials ~rng () =
  if trials < 1 then invalid_arg "Maintenance.estimate_error_cost: trials < 1";
  let resolutions =
    Array.init trials (fun _ ->
        simulate_collision ?background_rate ~loss ~one_way
          ~occupied ~pool_size ~config ~rng ())
  in
  let disruptions = Array.map fst resolutions in
  let broken = Array.map (fun (_, b) -> float_of_int b) resolutions in
  let disruption = Numerics.Stats.summarize disruptions in
  let mean_broken = Numerics.Safe_float.mean broken in
  { trials;
    disruption;
    mean_broken;
    suggested_error_cost =
      disruption.Numerics.Stats.mean +. (per_connection *. mean_broken) }
