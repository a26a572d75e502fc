(** Discrete-event simulation engine: a virtual clock driving a queue
    of scheduled thunks. *)

type t

val create : unit -> t
val now : t -> float
(** Current simulation time; starts at [0.]. *)

val schedule : t -> after:float -> (unit -> unit) -> unit
(** Run the thunk [after] seconds of virtual time from now; [after]
    must be non-negative. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant; [time] must not lie in the past. *)

val run : ?until:float -> t -> unit
(** Process events in timestamp order until the queue drains or the
    clock passes [until].  Raises [Failure] once [10_000_000] events
    have fired in one run (guarding against runaway schedules). *)
