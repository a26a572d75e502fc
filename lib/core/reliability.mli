(** Protocol reliability — Eq. 4 of the paper.

    The error probability is the probability that a run ends in state
    [error] (the host starts using an address that is actually in
    use):

    {v
                       q pi_n(r)
    E(n, r)  =  ----------------------
                 1 - q (1 - pi_n(r))
    v}

    and the reliability is its complement, the probability of ending in
    [ok]. *)

val error_probability : Params.t -> n:int -> r:float -> float
(** [E(n, r)], read off a {!Kernel} cursor advanced to [n].  Requires
    [n >= 1], [r >= 0]. *)

val log10_error_probability : Params.t -> n:int -> r:float -> float
(** Base-10 log of [E(n, r)], computed in the log domain: the
    figure-5/6 ordinate, finite down to [10^-300] and beyond. *)
