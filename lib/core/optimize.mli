(** Optimal protocol parameters — Sec. 4.2 and 4.4 of the paper.

    Three optimization views:
    - [r_opt(n)]: best listening period for a fixed probe count
      ({!optimal_r});
    - [N(r)]: best probe count for a fixed listening period
      ({!optimal_n}), yielding the envelope [C_min(r) = C(N(r), r)];
    - the global optimum over both ({!global_optimum}). *)

type point = { n : int; r : float; cost : float; error_prob : float }

val min_useful_probes : Params.t -> int
(** The paper's [nu = ceil (-log E / log (1 - l))] (Sec. 4.4): below
    this probe count, [q E pi_n(r)] can never become small and the cost
    stays enormous for every [r].  At least [1]; equals [1] when the
    delay distribution is non-defective. *)

val optimal_r : Params.t -> n:int -> Numerics.Minimize.result
(** [r_opt^(n)]: minimizes [C_n] over [r >= 0] by a 512-point grid
    polished with Brent.  The search interval grows automatically until
    the minimum is interior. *)

(** {1 Where the n-scans stop}

    Eq. 3 is [C_n(r) = N / D], [N = (r + c) (n (1-q) + q sum_(i<n) pi_i)
    + q E pi_n], [D = 1 - q (1 - pi_n)].  Every term of [N] is
    non-negative and [pi_n <= 1], so [D <= 1] and [C_n(r) >= (1-q) n (r
    + c)].  Let [t0] be the largest [t] with [S(t) = S(0)] ([0] if [S(0)
    = 0]).  If [n r <= t0], every ratio [S(i r) / S(0)] is [1], so
    [pi_n = D = 1] and [C_n(r) = n (r + c) + q E]; else [C_n(r) >= (1-q)
    (n r + n c) > (1-q) (t0 + n c)].  Hence [min_r C_n(r) >= min (q E +
    n c, (1-q) (t0 + n c))].  The kernel's operations are monotone
    under rounding, so its cost sits at most a few ulps below these
    bounds.  A scan ends before the first [n] whose bound, less a
    relative margin of [1e-9], is above its cheapest cost so far (no
    [n' >= n] can beat that), and at [n = 4096] in any case.  Ties break
    toward the smaller [n]: the answer is a full scan's first argmin. *)

val optimal_n : Params.t -> r:float -> int * float
(** [N(r)] and [C_min(r)]: scans [n = 1, 2, ...] to the bound
    [(1-q) n (r + c)], on one {!Kernel} cursor (one survival evaluation
    per [n]).  Raises [Invalid_argument] on a negative [r]. *)

val optimal_n_sweep : Params.t -> float array -> (float * (int * float)) array
(** {!optimal_n} at every grid point — the step function [N(r)] paired
    with [C_min(r)] — in grid order. *)

val log10_error_under_optimal_n : Params.t -> r:float -> float
(** [log10 E(N(r), r)] at {!optimal_n}'s winner: the sawtoothed error
    probability of Figure 6, finite where [E(N(r), r)] underflows. *)

val global_optimum : Params.t -> point
(** Minimizes [C(n, r)] over both parameters: [r_opt(n)] for [n = 1, 2,
    ...] to the bound [min (q E + n c, (1-q) (t0 + n c))], the first
    best pair with its cost and error probability; the [n] that share
    an r grid (all [n >= 8]) read it off one cursor per grid point.
    This is the computation behind the paper's Sec. 6 claim that
    realistic networks want [n = 2, r ~= 1.75].  Raises
    [Invalid_argument], naming the input, where the postage of 4096
    probes, [(1-q) 4096 c], is at most the floor [min (q E, (1-q) (t0 +
    c))] under every cost, so the bound cannot be relied on to end the
    scan by then: at [c = 0], and for a delay with a long [t0]. *)
