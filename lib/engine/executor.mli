(** The execute stage: a batch in, its results written back.

    {v
      lines ──Batch_input──▶ Batch.t ──execute──▶ results in the Batch.t
      quantities × n range × r grid ──n_sweeps──▶ Batch.t ──execute──▶ its values
      Query ──Planner.plan──▶ Plan.t ──run──▶ Answer.t
    v}

    {!execute} hands each backend that a plan of the {!Batch.t} is
    routed to ONE [eval_columns] call, which evaluates all those plans,
    so shared work amortizes
    across the whole batch: a query repeated in a batch costs nothing
    past its first occurrence on a shared kernel column.  Every point
    is bitwise identical to evaluating each query alone, at any job
    count.  {!n_sweeps} builds its batch directly, for the figure
    sweeps and the CLI's reads of Eqs. 3 and 4; the plan-array entry
    points below are adapters: plans copied into a batch, answers sliced
    out of it. *)

val execute : Batch.t -> unit
(** Evaluate a complete batch; the backends that fan out use the
    process-wide {!Exec.Pool}. *)

val n_sweeps :
  Query.quantity array -> Zeroconf.Params.t -> lo:int -> hi:int ->
  float array -> float array
(** [n_sweeps quantities p ~lo ~hi rs] evaluates each quantity exactly
    at [n = lo .. hi] for every [r] of [rs], as one batch of one plan
    per quantity and [r], and returns the batch's values: quantity [i]
    at [(n, rs.(j))] sits at [(i * length rs + j) * (hi - lo + 1) + n -
    lo].  The plans at one [r] share a kernel column; [lo = hi] reads
    one point per [r].  Raises [Invalid_argument] when [hi < lo], when
    no route serves a quantity, or when a point is invalid, as
    {!Query.validate} does, before anything is evaluated. *)

val run_batch : Plan.t array -> Answer.t array
(** Execute a batch of plans; answers in input order. *)

val eval : ?backend:string -> Query.t -> Answer.t
(** [Planner.plan] then {!run_batch} on the one plan: the one-call convenience the CLI and
    experiment drivers use.  [backend] forces a route by name; raises
    {!Planner.Unsupported} as [Planner.plan] does. *)

val eval_batch : Query.t array -> Answer.t array
(** Compile every query, then {!run_batch}. *)
