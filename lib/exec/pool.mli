(** A reusable fixed-size pool of OCaml 5 domains.

    The one place that owns worker domains: {!Parallel.map} runs on it,
    for the query engine's Monte-Carlo streams, DTMC builds and
    analytic points.  There is one pool per process ({!get}).  Its
    workers are spawned lazily on the first parallel batch and reused
    until the pool is resized or the process exits (they are joined
    [at_exit]), so the spawn cost is paid once per process.

    A pool of size [1] never spawns a domain: {!run} degrades to a
    plain sequential loop, which keeps single-job runs byte-identical
    to the pre-parallel code path and free of any synchronization. *)

type t
(** A fixed-size pool.  Thread-safe: concurrent {!run} batches from
    different domains interleave correctly (tasks must not themselves
    call {!run} on the same pool — no nested parallelism). *)

val size : t -> int
(** Total parallelism, including the calling domain. *)

val run : t -> (unit -> unit) array -> unit
(** [run t tasks] executes every task and returns when all are done.
    The caller participates, draining the shared queue alongside the
    workers.  If any task raises, the first exception (in completion
    order) is re-raised in the caller with its backtrace after the
    whole batch has settled. *)

(** {2 The process-wide default pool}

    Resolution order for the default job count: {!set_jobs} if called,
    else the [ZEROCONF_JOBS] environment variable, else
    [Domain.recommended_domain_count ()]. *)

val jobs_error : int -> string option
(** [None] for a job count in [[1, 128]] (128 is the most domains
    OCaml 5.1 runs at once), else why not, as a phrase to follow the
    count (["is not a positive integer"]). *)

val env_jobs : unit -> (int option, string) result
(** [ZEROCONF_JOBS], parsed: [Ok None] when unset, [Ok (Some jobs)] for
    an integer in [[1, 128]] (surrounding blanks allowed, so
    [" 2 "] reads as 2), and [Error message] for anything else. *)

val set_jobs : int -> unit
(** Pin the default job count (the [--jobs] CLI flag lands here).
    Raises [Invalid_argument] unless [1 <= jobs <= 128].  An
    existing default pool of a different size is shut down and replaced
    lazily. *)

val get : unit -> t
(** The process-wide pool at the current default job count,
    (re)created on demand.  Raises [Invalid_argument] if that count
    would come from a malformed [ZEROCONF_JOBS]. *)
