(** Derivative-free multidimensional minimization (Nelder–Mead).

    Used where the model has several coupled unknowns — e.g. fitting
    delay-distribution parameters to measurements, or solving the
    Sec. 4.5 inverse problem for [(E, c)] jointly instead of by nested
    one-dimensional searches. *)

type result = {
  x : float array;     (** Minimizer. *)
  fx : float;          (** Minimum value. *)
  iterations : int;
  converged : bool;
      (** False when all four runs improved the value and the last
          one exhausted its [200 * dim] iterations. *)
}

val restarted :
  ?tol:float -> ?scale:float array ->
  f:(float array -> float) -> float array -> result
(** Nelder–Mead from [x0], re-run from each result until the value
    stops improving (at most four runs) — the standard cheap
    defence against premature simplex collapse.  Each run starts from a
    simplex whose edge per coordinate is [scale] (default: 10% of each
    coordinate's magnitude, or 0.1) and stops when the simplex's
    relative function spread is at most [tol] (default [1e-10]) or
    after [200 * dim] iterations.  The objective may return [infinity]
    to encode constraints (the simplex retreats).  Raises
    [Invalid_argument] on an empty starting point or non-finite initial
    objective. *)
