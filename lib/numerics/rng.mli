(** Deterministic, splittable pseudo-random numbers.

    The network simulator and the Monte-Carlo validation of the Markov
    model need reproducible streams; this module provides a splitmix64
    generator, whose output is both the stream and the seed of a split,
    plus the standard sampling transforms. *)

type t
(** Mutable generator state: the 64-bit splitmix64 state, held unboxed,
    so a draw allocates nothing ({!int}) or only its boxed result.  Not
    thread-safe; split instead. *)

val create : int -> t
(** Seeded generator; equal seeds give equal streams. *)

val split : t -> t
(** Derive an independent generator; advances the parent. *)

val int : t -> int -> int
(** [int t bound] is uniform on [\[0, bound)]; [bound > 0].  Uses
    rejection sampling, so the distribution is exactly uniform. *)

val float : t -> float
(** Uniform on [\[0, 1)] with 53-bit resolution. *)

val uniform : t -> lo:float -> hi:float -> float
val bool : t -> float -> bool
(** [bool t p] is a Bernoulli trial with success probability [p]. *)

val exponential : t -> rate:float -> float
(** Exponential variate, [rate > 0]. *)

val choose_weighted : t -> float array -> int
(** Sample an index proportional to the (non-negative) weights; raises
    [Invalid_argument] if all weights are zero or any is negative. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
