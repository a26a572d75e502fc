(** Optimal protocol parameters — Sec. 4.2 and 4.4 of the paper.

    Three optimization views:
    - [r_opt(n)]: best listening period for a fixed probe count
      ({!optimal_r});
    - [N(r)]: best probe count for a fixed listening period
      ({!optimal_n}), yielding the envelope [C_min(r) = C(N(r), r)];
    - the global optimum over both ({!global_optimum}). *)

type point = {
  n : int;
  r : float;
  cost : float;
  error_prob : float;
}

val min_useful_probes : Params.t -> int
(** The paper's [nu = ceil (-log E / log (1 - l))] (Sec. 4.4): below
    this probe count, [q E pi_n(r)] can never become small and the cost
    stays enormous for every [r].  At least [1]; equals [1] when the
    delay distribution is non-defective. *)

val optimal_r : ?r_hi:float -> Params.t -> n:int -> Numerics.Minimize.result
(** [r_opt^(n)]: minimizes [C_n] over [r >= 0] by a 512-point grid
    polished with Brent.  The search interval grows automatically until
    the minimum is interior; [r_hi] overrides the initial upper
    bound. *)

val optimal_n : ?n_max:int -> ?patience:int -> Params.t -> r:float -> int * float
(** [N(r)] and [C_min(r)]: scans [n = 1, 2, ...] until the cost has
    been non-improving for [patience] (default [24]) consecutive probe
    counts or [n_max] (default [4096]) is reached.  Ties break toward
    the smaller [n], matching the paper's definition of [N].  One pass
    of a {!Kernel} cursor: one survival evaluation per candidate [n]. *)

val optimal_n_sweep : Params.t -> float array -> (float * (int * float)) array
(** {!optimal_n} at every grid point — the step function [N(r)] paired
    with [C_min(r)] — in grid order. *)

val log10_error_under_optimal_n : Params.t -> r:float -> float
(** [log10 E(N(r), r)], read off the winner of the same streaming scan
    as {!optimal_n}: the sawtoothed error probability of Figure 6,
    finite where [E(N(r), r)] underflows. *)

val global_optimum : Params.t -> point
(** Minimizes [C(n, r)] over both parameters: computes [r_opt(n)] for
    [n = 1, 2, ...] (up to 4096), stopping after 8 non-improving
    probe counts, and returns the best pair together with its cost
    and error probability.  This is the computation
    behind the paper's Sec. 6 claim that realistic networks want
    [n = 2, r ~= 1.75]. *)

val constrained_optimum : budget:float -> Params.t -> point
(** Cheapest design whose configuration time [n * r] stays within
    [budget] seconds — the impatient-user question from the paper's
    introduction ("a configuration time of 8 seconds may seem barely
    acceptable").  Scans [n = 1 .. 32] with [r] capped at
    [budget / n].  Raises [Invalid_argument] on a non-positive
    budget. *)

val probes_for_error_target :
  ?n_max:int -> Params.t -> r:float -> target:float -> int option
(** Smallest [n] with [E(n, r) <= target] ("how many probes buy six
    nines at this listening period?"); [None] if even [n_max] (default
    [256]) probes cannot reach it — e.g. when permanent loss floors the
    error above the target. *)
