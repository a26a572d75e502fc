(** The execute stage: plans in, answers out, cache consulted.

    The pipeline is [Planner.plan] (compile) — [Executor.run]
    (execute) — {!Cache} (memoize):

    {v
      Query ──plan──▶ Plan ──run──▶ Answer
                       │              ▲
                       └──key──▶ Cache┘
    v}

    [run_batch] first partitions the batch into cache hits and misses,
    then groups the misses by route and hands each backend ONE
    [eval_batch] call, so shared work (kernel cursors per
    [(scenario, r)] column, DTMC matrix builds) amortizes across the
    whole batch.  When a cache is active, key-duplicates within one
    batch evaluate once; the other occurrences replay the stored
    answer and count as cache hits.  Answers return in input order
    and every point is bitwise identical to evaluating each query
    alone, at any job count, cache on or off. *)

val run : ?cache:Cache.t -> Plan.t -> Answer.t
(** Execute one compiled plan — the singleton case of {!run_batch}. *)

val run_batch : ?cache:Cache.t -> Plan.t array -> Answer.t array
(** Execute a batch.  [cache] defaults to {!Cache.default} when
    {!Cache.enabled}, and to no caching otherwise; pass a cache
    explicitly to use it regardless of the global switch.  The
    backends that fan out use the process-wide {!Exec.Pool}. *)

val eval : ?cache:Cache.t -> ?backend:string -> Query.t -> Answer.t
(** [Planner.plan] then {!run}: the one-call convenience the CLI and
    experiment drivers use.  [backend] forces a route by name; raises
    {!Planner.Unsupported} as [Planner.plan] does. *)

val eval_batch :
  ?cache:Cache.t -> ?backend:string -> Query.t array -> Answer.t array
(** Compile every query, then {!run_batch}. *)
