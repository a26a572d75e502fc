(** The mean total cost of a protocol run — Eq. 3 of the paper:

    {v
                (r+c) ( n(1-q) + q sum_(i=0..n-1) pi_i(r) ) + q E pi_n(r)
    C(n, r) =  -----------------------------------------------------------
                            1 - q (1 - pi_n(r))
    v}

    with the boundary behaviour derived in Sec. 4.2:
    [C_n(0) = qE] and [C_n(r) -> A_n(r)] (linear asymptote) as
    [r -> inf]. *)

val mean : Params.t -> n:int -> r:float -> float
(** [C(n, r)], read off a {!Kernel} cursor advanced to [n].  Requires
    [n >= 1], [r >= 0]. *)

val asymptote : Params.t -> n:int -> r:float -> float
(** [A_n(r)]: the linear function [C_n] approaches for large [r]
    (Sec. 4.2).  Defined for defective delay distributions ([l < 1])
    and, by continuity ([ (1-(1-l)^n)/l -> n ] as [l -> 1]), also for
    [l = 1]. *)

val derivative : Params.t -> n:int -> r:float -> float
(** Numerical [dC_n/dr], via Richardson extrapolation; used by tests to
    confirm optimality of [r_opt] and by the calibration solver. *)
