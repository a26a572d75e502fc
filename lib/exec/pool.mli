(** The process-wide job count: how many domains {!Parallel.map} may
    run at once, the caller's included.

    It is one setting, [1] until {!set_jobs} changes it.  No domain
    lives here: {!Parallel.map} spawns its helpers per call and joins
    them before it returns.  The library reads no environment; the
    executables with [--jobs] resolve [ZEROCONF_JOBS] themselves and
    pass the count to {!set_jobs}. *)

val jobs_error : int -> string option
(** [None] for a job count in [[1, 128]] (128 is the most domains
    OCaml 5.1 runs at once), else why not, as a phrase to follow the
    count (["is not a positive integer"]). *)

val set_jobs : int -> unit
(** Set the job count (the [--jobs] CLI flag lands here).  Raises
    [Invalid_argument] unless [1 <= jobs <= 128]. *)

val jobs : unit -> int
(** The last {!set_jobs}, else [1]. *)
