(** The cache stage: answers indexed by {!Plan.key}.

    Because the key is structural and routes are deterministic (or, for
    Monte Carlo, seeded), a hit returns an answer byte-identical to
    re-running the plan — caching changes cost, never values.  Hits are
    marked by the answer's [cached] flag; every other field, including
    [evals] and [wall_ns], still describes the original run, so
    provenance accounting stays truthful.

    A cache is single-domain state: the {!Executor} consults it before
    fanning work out over the pool and stores after results settle, so
    no locking is needed and worker domains never touch it. *)

type t

type stats = {
  hits : int;        (** Lookups served from the table. *)
  misses : int;      (** Lookups that fell through to a backend. *)
  entries : int;     (** Live entries. *)
}

val create : ?capacity:int -> unit -> t
(** An empty cache.  When a store would push the table past
    [capacity] (default 4096 entries), the table is emptied wholesale —
    a deterministic backstop with no eviction order to maintain. *)

val lookup : t -> Plan.t -> Answer.t option
(** The stored answer with [cached = true], or [None].  Counts one hit
    or one miss. *)

val store : t -> Plan.t -> Answer.t -> unit
(** Index [answer] under the plan's key (stored with
    [cached = false], so a later hit re-flags it). *)

val stats : t -> stats
val clear : t -> unit
(** Drop all entries and zero the counters. *)

val pp_stats : Format.formatter -> stats -> unit

(** {1 The process-wide default} *)

val default : t
(** The cache the {!Executor} uses when none is passed and caching is
    {!enabled}. *)

val set_enabled : bool -> unit
(** The explicit off switch: [set_enabled false] makes the executor
    skip {!default} entirely (an explicitly passed cache is still
    honoured).  On by default. *)

val enabled : unit -> bool
