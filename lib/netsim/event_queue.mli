(** Priority queue of timestamped events (binary min-heap).

    Ties in time break in insertion order, so simultaneous events run
    deterministically — essential for reproducible simulations. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> time:float -> 'a -> unit
(** Raises [Invalid_argument] on a [nan] timestamp. *)

val peek : 'a t -> (float * 'a) option
(** Earliest event without removing it. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event. *)
