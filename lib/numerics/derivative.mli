(** Numerical differentiation, used for sensitivity analysis
    (elasticities of the cost function w.r.t. scenario parameters) and
    to cross-check the optimizer (the derivative must vanish at
    [r_opt]). *)

val richardson : f:(float -> float) -> float -> float
(** Richardson-extrapolated central differences (four halvings from
    [8 eps^(1/3) max 1 |x|]); roughly [O(h^8)] accurate on smooth
    functions. *)

val log_elasticity : f:(float -> float) -> float -> float
(** [log_elasticity ~f x] is [d log f / d log x] at [x]: the relative
    sensitivity of [f] to [x], by a central difference in [log x] with
    step [eps^(1/3) * max 1 |log x|].  Requires [x > 0] and [f x > 0]. *)
