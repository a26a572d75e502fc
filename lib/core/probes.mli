(** No-answer probabilities — Eq. 1 of the paper.

    [p_i(r) = P(i, r)] is the probability that {e none} of the [i] ARP
    probes sent so far is answered during the [i]-th listening period
    of length [r], and [pi_i(r) = prod_(j=0..i) p_j(r)] the probability
    that the host is still waiting after [i] whole periods.

    Eq. 1 telescopes: each factor equals the survival ratio
    [S(jr) / S((j-1) r)] with [S = 1 - F_X], so
    [P(i, r) = S(i r) / S(0)].  This is the telescoped form: it is
    faster than the literal product as printed in the paper and immune
    to the cancellation in [F(jr) - F((j-1) r)].  The literal product is
    the test suite's oracle for Eq. 1, and a property test asserts that
    the two agree up to rounding.  The products [pi_n(r)] and their logs
    are read off a {!Kernel} cursor. *)

val no_answer : Params.t -> i:int -> r:float -> float
(** [p_i(r)], telescoped form.  [p_0(r) = 1] by convention.  Requires
    [i >= 0] and [r >= 0]. *)
