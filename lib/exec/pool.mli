(** A reusable fixed-size pool of OCaml 5 domains.

    The one place that owns worker domains: {!Parallel.map} runs on it,
    for the query engine's Monte-Carlo streams, DTMC builds and
    analytic points.  Workers are spawned lazily on the first parallel
    batch and reused until {!shutdown} (registered automatically with
    [at_exit]), so the spawn cost is paid once per process.

    A pool of size [1] never spawns a domain: {!run} degrades to a
    plain sequential loop, which keeps single-job runs byte-identical
    to the pre-parallel code path and free of any synchronization. *)

type t
(** A fixed-size pool.  Thread-safe: concurrent {!run} batches from
    different domains interleave correctly (tasks must not themselves
    call {!run} on the same pool — no nested parallelism). *)

val create : int -> t
(** [create jobs] makes a pool of total parallelism [jobs] (the caller
    counts as one worker, so [jobs - 1] domains are spawned, lazily).
    Raises [Invalid_argument] if [jobs < 1]. *)

val size : t -> int
(** Total parallelism, including the calling domain. *)

val run : t -> (unit -> unit) array -> unit
(** [run t tasks] executes every task and returns when all are done.
    The caller participates, draining the shared queue alongside the
    workers.  If any task raises, the first exception (in completion
    order) is re-raised in the caller with its backtrace after the
    whole batch has settled. *)

val shutdown : t -> unit
(** Join all worker domains.  The pool remains usable afterwards
    (workers respawn lazily); called automatically at exit for pools
    with live workers. *)

(** {2 The process-wide default pool}

    Resolution order for the default job count: {!set_jobs} if called,
    else the [ZEROCONF_JOBS] environment variable, else
    [Domain.recommended_domain_count ()]. *)

val max_jobs : int
(** [128], the most domains OCaml 5.1 runs at once ([Max_domains]). *)

val jobs_error : int -> string option
(** [None] for a job count in [[1, max_jobs]], else why not, as a
    phrase to follow the count (["is not a positive integer"]). *)

val env_jobs : unit -> (int option, string) result
(** [ZEROCONF_JOBS], parsed: [Ok None] when unset, [Ok (Some jobs)] for
    an integer in [[1, max_jobs]] (surrounding blanks allowed, so
    [" 2 "] reads as 2), and [Error message] for anything else. *)

val default_jobs : unit -> int
(** The job count the next {!get} will use.  Raises [Invalid_argument]
    if it would come from a malformed [ZEROCONF_JOBS]. *)

val set_jobs : int -> unit
(** Pin the default job count (the [--jobs] CLI flag lands here).
    Raises [Invalid_argument] unless [1 <= jobs <= max_jobs].  An
    existing default pool of a different size is shut down and replaced
    lazily. *)

val get : unit -> t
(** The process-wide pool at the current {!default_jobs} size,
    (re)created on demand. *)
