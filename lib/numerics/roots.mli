(** One-dimensional root finding: bisection, which inverts a CDF for
    its quantiles ({!Dist.Distribution.quantile}). *)

type result = {
  root : float;
  value : float;  (** [f root] *)
  iterations : int;
}

val bisect : f:(float -> float) -> float -> float -> result
(** Plain bisection on a sign-changing interval, until the half-width
    falls below [1e-12] or after 200 halvings.  Raises [Invalid_argument] if [f a] and [f b]
    have the same strict sign. *)
