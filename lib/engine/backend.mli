(** The contract every evaluation route implements. *)

module type S = sig
  val name : string
  (** Stable identifier: ["analytic"], ["kernel"], ["dtmc"] or ["mc"].
      Matches {!Plan.route_name} of the route this module serves. *)

  val supports : Query.t -> bool
  (** Whether this route can answer the query — quantity, domain and
      accuracy demand all considered.  [eval] on an unsupported query
      raises [Invalid_argument]. *)

  val eval : Query.t -> Answer.t
  (** Answer the query.  Exactly the singleton case of
      {!eval_batch}. *)

  val eval_batch : Plan.t array -> Answer.t array
  (** Answer a batch of plans, all routed to this backend, amortizing
      shared work across them: the kernel streams one cursor per
      [(scenario, r)] column, the DTMC route builds each distinct
      matrix once, Monte Carlo runs each sampling stream once for
      every quantity that reads it.  Answers come back in plan order,
      and every value is bitwise identical to evaluating the plans one
      by one — batching changes cost, never values.  Each answer's
      [points] is its plan's {!Plan.points} array, shared; its values
      are flat: [Scalars] from the exact routes, [Intervals] from
      Monte Carlo.  Each exact answer's [evals] counts the work its
      plan triggered, so evals summed over the batch equal the work
      actually done; a Monte-Carlo answer's [evals] is its sample size,
      trials x points, shared run or not.  [wall_ns] is the backend's
      timed evaluation of the whole batch (for the kernel, the column
      scans), the same in every answer of the batch.

      The routes whose unit of work costs a millisecond or more fan it
      out over the process-wide {!Exec.Pool} (sized by [--jobs] or
      [ZEROCONF_JOBS]): Monte Carlo per sampling stream, the DTMC route
      per matrix build, the analytic route per point.  The kernel runs
      its columns serially.  Values are bit-identical at every job
      count.  Raises [Invalid_argument] on a plan routed elsewhere or
      not supported. *)
end
