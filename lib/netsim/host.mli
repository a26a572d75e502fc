(** A host already configured with an address: the ARP responder side
    of the protocol.  On receiving a probe for its own address it
    broadcasts a reply, possibly late (processing delay, modelling the
    "host is busy" case of Sec. 3.1). *)

type t

val create :
  engine:Engine.t -> link:Link.t -> rng:Numerics.Rng.t ->
  ?processing:Dist.Distribution.t -> address:int -> unit -> t
(** [processing] defaults to instantaneous response; a processing
    delay that never arrives leaves the probe unanswered.  Every probe
    for [address] is defended. *)
