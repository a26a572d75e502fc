(** Possibly-defective probability distributions over reply delays.

    Section 3.2 of the paper models the time [X] between sending an ARP
    probe and receiving its reply with a {e defective} distribution: a
    monotone [D] with [lim D(t) = l < 1], where [1 - l] is the
    probability the reply is lost forever.  A value of type {!t} packages
    the CDF together with an accurately-computed survival function
    (the quantity that actually appears in Eq. 1), the total mass [l],
    and a sampler for the simulator. *)

type t = {
  name : string;
  mass : float;
      (** Total probability [l] that a reply ever arrives, in [(0, 1]].
          [1. -. mass] is the permanent-loss probability. *)
  cdf : float -> float;
      (** [cdf t] is the probability a reply arrives within [t] seconds.
          Monotone from [0] to [mass]. *)
  survival : float -> float;
      (** [survival t = 1 - cdf t], computed without cancellation; tends
          to [1 - mass] as [t -> infinity]. *)
  density : (float -> float) option;
      (** Density of the non-defective part where it exists. *)
  mean : float;
      (** Mean delay conditional on the reply arriving, in closed
          form. *)
  sample : Numerics.Rng.t -> float option;
      (** Draw a reply delay; [None] means the reply is lost forever. *)
}

val v :
  name:string -> ?mass:float -> ?density:(float -> float) ->
  mean:float -> cdf:(float -> float) -> survival:(float -> float) ->
  sample:(Numerics.Rng.t -> float option) -> unit -> t
(** Smart constructor; validates [mass] in [(0, 1]]. *)

val loss_probability : t -> float
(** [1. -. mass]. *)

val conditional_cdf : t -> float -> float
(** CDF of the delay given that the reply arrives: [cdf t /. mass]
    (the paper's [F(t) = D(t) / l]). *)

val pp : Format.formatter -> t -> unit
