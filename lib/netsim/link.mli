(** Broadcast medium with per-receiver loss and propagation delay.

    Every attached station sees every transmission (it is a single
    collision domain, as in the paper's link-local setting), except
    that each receiver independently loses the packet with the
    configured probability — the "probe got lost / reply got lost"
    events of Sec. 3.1. *)

type t

val create :
  engine:Engine.t -> rng:Numerics.Rng.t -> loss:float ->
  one_way:Dist.Distribution.t -> t
(** [loss] is the per-receiver drop probability; [one_way] the
    propagation-delay distribution (its own defect mass also counts as
    loss). *)

val attach : t -> (Packet.t -> unit) -> int
(** Register a station; returns its station id.  The handler runs at
    packet-arrival virtual time. *)

val detach : t -> int -> unit
(** Stop delivering to a station (it may still send). *)

val broadcast : t -> sender:int -> Packet.t -> unit
(** Transmit to every other attached station. *)
