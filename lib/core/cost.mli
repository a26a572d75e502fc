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
