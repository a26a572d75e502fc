(** The simulated link-local network every packet-level runner starts
    from: one event engine, one address pool and one broadcast link,
    with a configured {!Host} defending each of [occupied] random
    addresses. *)

type t = {
  engine : Engine.t;
  pool : Address_pool.t;
  link : Link.t;
  rng : Numerics.Rng.t;
  processing : Dist.Distribution.t option;
      (** The responders' processing delay (default instantaneous). *)
}

val create :
  loss:float -> one_way:Dist.Distribution.t ->
  ?processing:Dist.Distribution.t -> occupied:int -> pool_size:int ->
  rng:Numerics.Rng.t -> unit -> t
(** Claims [occupied] uniformly random addresses of a pool of
    [pool_size] one at a time, each defended by a responder attached as
    soon as it is claimed (so the link's stations are in claim order).
    Raises [Invalid_argument] unless [occupied] is in
    [\[0, pool_size)]. *)

val claim : t -> int
(** Claim one more uniformly random free address and attach a
    responder defending it; returns the address. *)

val defend : t -> int -> unit
(** Attach a responder for an address already claimed, such as one a
    newcomer accepted. *)
