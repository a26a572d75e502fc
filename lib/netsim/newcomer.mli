(** The configuring host: the zeroconf initialization state machine of
    Sec. 2, driven by the event engine.

    The newcomer picks a uniformly random candidate address, broadcasts
    [n] ARP probes [r] seconds apart, and restarts with a fresh
    candidate whenever evidence of a conflict arrives — an ARP reply
    for the candidate, or (per the draft) someone else's probe for the
    same candidate.  After [n] silent listening periods it claims the
    address; if the address was in fact occupied, that is an address
    collision, charged the error cost. *)

type config = {
  probes : int;          (** [n]. *)
  listen : float;        (** [r], seconds per listening period. *)
  probe_cost : float;    (** [c], postage per probe. *)
  error_cost : float;    (** [E], charged on accepting a collision. *)
  immediate_abort : bool;
      (** [true]: restart the moment a conflict is detected (real
          protocol behaviour).  [false]: only act at listening-period
          boundaries, which is exactly the paper's DRM semantics. *)
  rate_limit : (int * float) option;
      (** Draft detail the paper abstracts away (Sec. 3.1 (b)): after
          [k] conflicts, wait [delay] seconds between attempts. *)
  avoid_failed : bool;
      (** Draft detail (a): never retry an address that drew a
          defence. *)
  announce : (int * float) option;
      (** After a clean acceptance, broadcast [(count, interval)]
          gratuitous ARP replies — the draft's ANNOUNCE phase, which
          warns hosts still probing for the same address. *)
}

val drm_config : n:int -> r:float -> probe_cost:float -> error_cost:float -> config
(** Paper-faithful semantics: period-boundary aborts, no rate limit, no
    blacklisting. *)

type t

val start :
  engine:Engine.t -> link:Link.t -> pool:Address_pool.t ->
  rng:Numerics.Rng.t -> config:config ->
  on_done:(Metrics.outcome -> unit) -> unit -> t
(** Attach to the link and begin configuring at the current virtual
    time.  [on_done] fires exactly once, when an address is accepted
    (cleanly or collidingly); the newcomer detaches itself first, so
    the scenario can hand the address to a {!Host} responder. *)
