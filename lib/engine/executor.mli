(** The execute stage: a batch in, its results written back.

    {v
      lines ──Batch_input──▶ Batch.t ──execute──▶ results in the Batch.t
      Query ──Planner.plan──▶ Plan.t ──run──▶ Answer.t
    v}

    {!execute} partitions a {!Batch.t} by route and hands each backend
    ONE [eval_columns] call on its plans, so shared work amortizes
    across the whole batch: a query repeated in a batch costs nothing
    past its first occurrence on a shared kernel column.  Every point
    is bitwise identical to evaluating each query alone, at any job
    count.  The plan-array entry points below are adapters: plans
    copied into a batch, answers sliced out of it. *)

val execute : Batch.t -> unit
(** Evaluate a complete batch; the backends that fan out use the
    process-wide {!Exec.Pool}. *)

val run_batch : Plan.t array -> Answer.t array
(** Execute a batch of plans; answers in input order. *)

val eval : ?backend:string -> Query.t -> Answer.t
(** [Planner.plan] then {!run_batch} on the one plan: the one-call convenience the CLI and
    experiment drivers use.  [backend] forces a route by name; raises
    {!Planner.Unsupported} as [Planner.plan] does. *)

val eval_batch : ?backend:string -> Query.t array -> Answer.t array
(** Compile every query, then {!run_batch}. *)
