(** One-dimensional minimization.

    The heart of the paper's optimization problem: find
    [r_opt(n) = argmin_r C_n(r)] (Sec. 4.2).  The cost functions are
    unimodal past their initial plateau, so Brent on a bracketed
    minimum is exact enough; a grid pre-scan makes the search robust to
    the flat [qE] plateau at small [r]. *)

type result = { x : float;  (** Minimizer. *) fx : float  (** Minimum value. *) }

val grid : samples:int -> float -> float -> float array
(** The [samples + 1] equispaced points [lo + i (hi - lo) / samples]
    between [a] and [b], the first exactly [lo].  Raises
    [Invalid_argument] if [samples < 2]. *)

val grid_then_brent : f:(float -> float) -> float array -> float array -> result
(** [grid_then_brent ~f xs fxs], [xs] a {!grid}, [fxs.(i) = f xs.(i)]:
    the first smallest grid value, its cell polished with Brent's
    minimization (golden section plus successive parabolic
    interpolation, to a relative tolerance of [1e-10] within 200
    iterations), the grid point kept if the polish lands higher.
    Robust for functions with plateaus or multiple shallow local
    minima, such as [C_min(r)]. *)
