(** A host already configured with an address: the ARP responder side
    of the protocol.  On receiving a probe for its own address it
    broadcasts a reply — possibly late (processing delay, modelling the
    "host is busy" case of Sec. 3.1) or not at all (deafness
    probability). *)

type t

val create :
  engine:Engine.t -> link:Link.t -> rng:Numerics.Rng.t ->
  ?processing:Dist.Distribution.t -> ?deaf_prob:float ->
  ?defend_interval:float -> address:int -> unit -> t
(** [processing] defaults to instantaneous response; [deaf_prob]
    (default [0.]) is the probability of ignoring a probe entirely
    (busy beyond the listening horizon); [defend_interval] (default
    [0.], i.e. always defend) rate-limits defenses to one per window,
    the draft's DEFEND_INTERVAL behaviour. *)
