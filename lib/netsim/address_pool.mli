(** The link-local address space (65024 addresses, 169.254.1.0 –
    169.254.254.255) and its occupancy. *)

type t

val default_size : int
(** 65024, the size of the link-local range. *)

val create : ?size:int -> unit -> t
(** Default size is {!Zeroconf-like} 65024; smaller pools are useful in
    tests to provoke collisions. *)

val size : t -> int

val claim : t -> int -> unit
(** Mark an address occupied.  Raises [Invalid_argument] if out of
    range or already claimed. *)

val is_occupied : t -> int -> bool

val claim_random_free : t -> rng:Numerics.Rng.t -> int
(** Claim a uniformly random free address (rejection sampling; raises
    [Failure] when the pool is full). *)

val random_candidate : t -> rng:Numerics.Rng.t -> int
(** Uniform draw over the whole space — occupied or not — exactly the
    protocol's blind selection step. *)
