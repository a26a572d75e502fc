(** Importance-sampled verification of the error probability.

    Plain Monte-Carlo confirms Eq. 4 only where collisions are common;
    this wrapper builds a boosted proposal for the DRM (push the walk
    toward [error]) and estimates [E(n, r)] by likelihood-ratio
    weighting — confirming the analytic tail at depths like [1e-20]
    with a few thousand paths. *)

type verification = {
  analytic : float;      (** Eq. 4. *)
  estimate : Dtmc.Importance.estimate;
  covered : bool;        (** Analytic value inside the 95% CI. *)
}

val verify_error_probability :
  trials:int -> rng:Numerics.Rng.t -> Params.t -> n:int -> r:float ->
  verification
(** [trials] weighted paths; the proposal is
    {!Dtmc.Importance.boosted_proposal} at its default boost. *)
