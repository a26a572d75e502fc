(** One-dimensional minimization.

    The heart of the paper's optimization problem: find
    [r_opt(n) = argmin_r C_n(r)] (Sec. 4.2).  The cost functions are
    unimodal past their initial plateau, so Brent on a bracketed
    minimum is exact enough; a grid pre-scan makes the search robust to
    the flat [qE] plateau at small [r]. *)

type result = {
  x : float;      (** Minimizer. *)
  fx : float;     (** Minimum value. *)
  iterations : int;
}

val grid_then_brent :
  ?samples:int -> f:(float -> float) -> float -> float -> result
(** Scan [samples] (default [256]) equispaced points, then polish the
    best grid cell with Brent's minimization (golden section plus
    successive parabolic interpolation, to a relative tolerance of
    [1e-10] within 200 iterations; superlinear on smooth functions).
    Robust for functions with plateaus or multiple shallow local
    minima, such as [C_min(r)]. *)
