(** Multi-route agreement: run queries on every backend that can
    answer them and quantify how far the routes drift apart.

    It works for {e any} query, and the reproduction report's V1
    validation table is one call of {!run}: the deterministic routes
    must agree to float precision, and the Monte-Carlo estimate must
    cover every deterministic value with its confidence interval. *)

type report = {
  query : Query.t;
  answers : Answer.t list;
      (** One per backend that ran, deterministic routes first
          (analytic, kernel, dtmc in that order, those that support the
          query), Monte Carlo last when applicable. *)
  max_rel_divergence : float;
      (** Max over all domain points and all pairs of deterministic
          routes of [|a - b| / max |a| |b|] ([0.] when both are 0 or
          the values are equal; [infinity] if exactly one is
          non-finite). *)
  mc_covered : bool option;
      (** Whether every deterministic answer lies inside the
          Monte-Carlo confidence interval at every domain point, so a
          drift between two exact routes shows as [Some false];
          [None] when no Monte-Carlo route applies (e.g. log10 error,
          cost variance). *)
}

val default_trials : int
(** 20_000. *)

val default_seed : int
(** 42. *)

val run : trials:int -> ?seed:int -> Query.t list -> report list
(** One report per query, in order.  Each query's accuracy demand is
    ignored: deterministic routes run [Exact], Monte Carlo runs
    [Sampled] with [trials]/[seed].  Every Monte-Carlo plan of the list
    goes to one {!Executor.run_batch}, so queries on the same sampling
    stream (e.g. cost and error at one point) share one run, and the
    streams fan out over the process-wide {!Exec.Pool}; the exact
    routes run query by query, so each report's [evals] are its own.
    Raises [Invalid_argument] before evaluating anything if a query,
    or its Monte-Carlo form, is invalid (e.g. [trials < 1]). *)
