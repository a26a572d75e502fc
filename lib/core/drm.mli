(** The discrete-time Markov reward model of Sec. 3.1 / 4.1, built
    explicitly as sparse rows over the states
    [start, 1st, ..., nth, error, ok] (indices [0], [1 .. n], [n + 1],
    [n + 2]) and analysed with the generic {!Dtmc} machinery.

    This module is the bridge that lets the repository check the
    paper's closed forms (Eqs. 3 and 4) against an independent
    linear-algebra solution of the very matrices [P_n] and [C_n] the
    paper defines. *)

type t = {
  chain : Dtmc.Chain.t;
  reward : Dtmc.Reward.t;
  start : int;
  error : int;
  ok : int;
}

val build : Params.t -> n:int -> r:float -> t
(** Constructs the DRM for the given protocol parameters.  Transition
    probabilities and costs follow Sec. 4.1 verbatim:
    [start -> 1st] with probability [q] and cost [r + c];
    [start -> ok] with probability [1 - q] and cost [n (r + c)];
    [ith -> (i+1)th] with probability [p_i(r)] and cost [r + c]
    (the final such hop, [nth -> error], costs [E] instead);
    [ith -> start] with probability [1 - p_i(r)] and zero cost.
    Hops of probability zero are left out of the rows.  Raises
    [Invalid_argument] for [n < 1] and for a negative or NaN [r]. *)

val mean_cost : t -> float
(** Mean accumulated cost from [start] — the matrix route to
    [C(n, r)], via [(I - Q)^(-1) w]. *)

val error_probability : t -> float
(** Absorption probability into [error] — the matrix route to
    [E(n, r)]. *)

val cost_variance : t -> float
(** Variance of the accumulated cost (beyond the paper: Eq. 3 gives
    only the mean). *)

val expected_steps : t -> float
(** Expected number of DRM transitions until absorption. *)
