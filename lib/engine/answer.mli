(** Provenance-tagged query results.

    Every backend returns the same shape: the plan's domain points, one
    value per point, flat, plus the provenance trio — which backend
    ran, how many elementary evaluations it performed, and how long its
    evaluation took.  "Elementary evaluation" is backend-specific:
    closed-form calls for [Analytic], survival-function steps for
    [Kernel], matrix builds + solves for [Dtmc], and simulation trials
    for [Mc] — comparable within a backend, indicative across them.

    Values are stored flat, one unboxed float per exact value, so a
    backend writes a sweep straight into its answer: read them through
    {!scalar} and {!ci}, or match on {!values} once per answer. *)

type interval = { mean : float; ci_lo : float; ci_hi : float }
(** A Monte-Carlo point estimate with its 95% confidence interval.  An
    all-float record, so an [interval array] holds its floats
    unboxed. *)

type values =
  | Scalars of float array
      (** Deterministic routes: each value to full float precision. *)
  | Intervals of interval array  (** Monte-Carlo routes. *)

type t = {
  backend : string;   (** {!Backend.S.name} of the route that ran. *)
  evals : int;        (** Elementary evaluations performed.  Batched
                          executions attribute shared work to the plan
                          whose point triggered it, so evals summed
                          over a batch equal the work actually done. *)
  wall_ns : int64;    (** Wall-clock nanoseconds of the backend's timed
                          evaluation of the batch this answer came from
                          (for the kernel, the column scans), not of
                          this answer alone; a singleton batch times
                          just this answer. *)
  points : (int * float) array;
      (** The [(n, r)] domain points in sweep order: the plan's own
          {!Plan.points} array, shared, never copied. *)
  values : values;    (** One value per point, in the same order. *)
}

val scalar : t -> int -> float
(** [scalar a k] is point [k]'s estimate: the value itself, or the
    interval's mean. *)

val ci : t -> int -> (float * float) option
(** [ci a k] is point [k]'s confidence interval, when values carry
    one. *)

type value = Scalar of float | Interval of interval
(** One point's value, boxed: for printing only. *)

val value : t -> int -> value
(** [value a k] boxes point [k]'s value.  It allocates; loops over a
    whole answer read {!values} or {!scalar} instead. *)
