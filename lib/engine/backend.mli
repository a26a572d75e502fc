(** The contract every evaluation route implements. *)

module type S = sig
  val name : string
  (** Stable identifier: ["analytic"], ["kernel"], ["dtmc"] or ["mc"].
      Matches {!Plan.route_name} of the route this module serves. *)

  val serves : Query.quantity -> sampled:bool -> bool
  (** Whether this route answers the quantity, at a Monte-Carlo
      accuracy when [sampled]. *)

  val max_n : int
  (** The largest probe count the route takes ([max_int]: no cap). *)

  val supports : Query.t -> bool
  (** {!serves} on the query's parts, every probe count at most
      {!max_n}. *)

  val eval_columns : Batch.t -> unit
  (** [eval_columns b]: the route's one evaluation, of every plan of
      [b] (prepared) routed to it, written into [b]'s results.  Shared
      work amortizes across them, grouped by one open-addressing table:
      the kernel streams one cursor per [(scenario, bits of r)] column,
      the DTMC route builds each distinct matrix once, and Monte Carlo
      runs each sampling stream once for every quantity that reads it;
      the analytic route groups nothing, since no two of its points
      share work.  Every value is bitwise that of each plan alone.  An
      exact plan's evals count the work it triggered, so they sum to the
      work done; a Monte-Carlo plan's are trials x points, shared run or
      not.

      The routes whose unit of work costs a millisecond or more fan it
      out, one {!Exec.Parallel.map} element per group, at the
      process-wide job count ({!Exec.Pool.set_jobs}, which the CLI's
      [--jobs] sets): Monte Carlo per sampling stream, the DTMC route
      per matrix build, the analytic route per point.  The kernel runs
      its columns serially.  Values are bit-identical at every job
      count.  Raises [Invalid_argument] on a plan routed here that it
      does not serve. *)

  val eval_batch : Plan.t array -> Answer.t array
  (** {!eval_columns} on the plans as a batch, answers in plan order
      (raises [Invalid_argument] on a plan routed elsewhere);
      [wall_ns] times the whole batch (for the kernel, the scans). *)
end
