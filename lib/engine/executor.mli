(** The execute stage: plans in, answers out.

    The pipeline is [Planner.plan] (compile) — [Executor.run]
    (execute):

    {v
      Query ──plan──▶ Plan ──run──▶ Answer
    v}

    [run_batch] groups a batch by route and hands each backend ONE
    [eval_batch] call, so shared work (kernel cursors per
    [(scenario, r)] column, DTMC matrix builds, Monte-Carlo streams)
    amortizes across the whole batch: a query repeated in a batch
    costs nothing past its first occurrence on a shared kernel column.
    Answers return in input order and every point is bitwise identical
    to evaluating each query alone, at any job count.  No answer is
    memoized across calls. *)

val run : Plan.t -> Answer.t
(** Execute one compiled plan — the singleton case of {!run_batch}. *)

val run_batch : Plan.t array -> Answer.t array
(** Execute a batch.  The backends that fan out use the process-wide
    {!Exec.Pool}. *)

val eval : ?backend:string -> Query.t -> Answer.t
(** [Planner.plan] then {!run}: the one-call convenience the CLI and
    experiment drivers use.  [backend] forces a route by name; raises
    {!Planner.Unsupported} as [Planner.plan] does. *)

val eval_batch : ?backend:string -> Query.t array -> Answer.t array
(** Compile every query, then {!run_batch}. *)
