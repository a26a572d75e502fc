(** Parameter uncertainty, propagated to the recommendation.

    The paper closes on exactly this worry: the optimized parameters
    depend on application-specific inputs that "must be based on
    measurement in real world scenarios", which designers can only
    estimate.  This module quantifies the consequence: bootstrap the
    measured reply delays, refit [F_X] on each resample, re-run the
    optimizer, and report how stable the recommended design actually
    is. *)

type recommendation_distribution = {
  rounds : int;
  n_votes : (int * int) list;
      (** Optimal probe count and its bootstrap frequency, most common
          first. *)
  modal_n : int;
  r_summary : Numerics.Stats.summary;
      (** Spread of the recommended listening period. *)
  r_ci : float * float;  (** Central 90% bootstrap interval for [r]. *)
  cost_summary : Numerics.Stats.summary;
      (** Spread of the believed optimal cost. *)
}

val bootstrap :
  rounds:int -> losses:int -> rng:Numerics.Rng.t ->
  delays:float array -> q:float -> probe_cost:float -> error_cost:float ->
  unit -> recommendation_distribution
(** [rounds] bootstrap resamples of the delay measurements, with the
    [losses] among them resampled binomially alongside.  Raises
    [Invalid_argument] on an empty sample. *)

val pp : Format.formatter -> recommendation_distribution -> unit
