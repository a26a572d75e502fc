(** Rare-event estimation for absorbing chains by importance sampling.

    Plain Monte-Carlo cannot see the zeroconf error probabilities —
    Eq. 4 lives at [1e-20 .. 1e-50] — but sampling paths under a
    {e proposal} chain that makes the rare route likely, and weighting
    each path by its likelihood ratio, gives unbiased estimates with
    useful relative error at any depth the float range allows. *)

type estimate = {
  trials : int;
  mean : float;              (** Unbiased estimate of the probability. *)
  relative_error : float;    (** Sample std of the estimator / mean. *)
  ci_lo : float;
  ci_hi : float;             (** Normal-approximation 95% bounds. *)
  hits : int;                (** Paths that reached the target. *)
}

val estimate_absorption :
  trials:int -> rng:Numerics.Rng.t ->
  proposal:Chain.t -> Chain.t -> from:int -> into:int -> estimate
(** Estimate the probability that [chain] started at [from] absorbs in
    [into], sampling paths from [proposal] and reweighting.

    Requirements checked at call time: the two chains share the state
    space size, and the proposal gives positive probability to every
    transition the target chain uses ([absolute continuity]); raises
    [Invalid_argument] otherwise.  Paths longer than [1_000_000]
    steps abort the run with [Failure]. *)

val boosted_proposal : Chain.t -> toward:int -> Chain.t
(** A generic proposal: in every transient state that can move closer
    to [toward] (by graph distance), shift probability so those edges
    together get at least [0.4] of the row, split in proportion to
    their original probabilities, renormalizing the rest.  Leaves
    absorbing states alone.  Good enough for chains with a single rare
    forward route, like the zeroconf DRM. *)
