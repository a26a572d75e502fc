(** Answers indexed by {!Plan.key}.

    Nothing in the engine or the shipped executables reads or fills
    this table: {!Executor.run_batch} evaluates every plan, and the
    backends share work within a batch instead.  The module stays only
    because the benchmark's in-process replay ([perfbench/trace.ml])
    times a lookup and a store per plan on {!default}; it goes when
    that replay stops calling it.

    A cache is single-domain state; worker domains never touch it. *)

type t

type stats = {
  hits : int;    (** Lookups served from the table. *)
  misses : int;  (** Lookups that found nothing. *)
}

val lookup : t -> Plan.t -> Answer.t option
(** The stored answer, or [None].  Counts one hit or one miss. *)

val store : t -> Plan.t -> Answer.t -> unit
(** Index [answer] under the plan's key.  When the table holds 4096
    entries and the key is new, the table is first emptied wholesale
    — a deterministic backstop with no eviction order to maintain. *)

val stats : t -> stats
val clear : t -> unit
(** Drop all entries and zero the counters. *)

val default : t
(** The one cache. *)
