type t = {
  engine : Engine.t;
  link : Link.t;
  rng : Numerics.Rng.t;
  processing : Dist.Distribution.t option;
  deaf_prob : float;
  defend_interval : float;
  address : int;
  mutable station : int;
  mutable last_defense : float;
}

let create ~engine ~link ~rng ?processing ?(deaf_prob = 0.)
    ?(defend_interval = 0.) ~address () =
  if not (Numerics.Safe_float.is_probability deaf_prob) then
    invalid_arg "Host.create: deaf_prob not in [0, 1]";
  if defend_interval < 0. then invalid_arg "Host.create: negative defend_interval";
  let t =
    { engine;
      link;
      rng;
      processing;
      deaf_prob;
      defend_interval;
      address;
      station = -1;
      last_defense = neg_infinity }
  in
  let handle packet =
    match packet with
    | Packet.Arp_probe { address; _ } when address = t.address ->
        (* the draft's DEFEND_INTERVAL: at most one defense per window,
           leaving a real (if short) vulnerability between defenses *)
        if
          Engine.now t.engine -. t.last_defense >= t.defend_interval
          && not (Numerics.Rng.bool t.rng t.deaf_prob)
        then begin
          t.last_defense <- Engine.now t.engine;
          let send () =
            Link.broadcast t.link ~sender:t.station
              (Packet.Arp_reply { sender = t.station; address = t.address })
          in
          match t.processing with
          | None -> send ()
          | Some dist -> (
              match dist.sample t.rng with
              | None -> () (* processing never completes: host wedged *)
              | Some d -> Engine.schedule t.engine ~after:d send)
        end
    | Packet.Arp_probe _ | Packet.Arp_reply _ -> ()
  in
  t.station <- Link.attach link handle;
  t
