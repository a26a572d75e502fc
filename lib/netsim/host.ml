type t = { mutable station : int }

let create ~engine ~link ~rng ?processing ~address () =
  let t = { station = -1 } in
  let send () =
    Link.broadcast link ~sender:t.station
      (Packet.Arp_reply { sender = t.station; address })
  in
  let handle packet =
    match packet with
    | Packet.Arp_probe { address = probed; _ } when probed = address -> (
        (* every defense takes one uniform draw from the shared
           generator, which every seeded run's stream counts on *)
        ignore (Numerics.Rng.float rng);
        match processing with
        | None -> send ()
        | Some (dist : Dist.Distribution.t) -> (
            match dist.sample rng with
            | None -> () (* processing never completes: host wedged *)
            | Some d -> Engine.schedule engine ~after:d send))
    | Packet.Arp_probe _ | Packet.Arp_reply _ -> ()
  in
  t.station <- Link.attach link handle;
  t
