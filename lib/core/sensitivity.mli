(** Sensitivity of the model outputs to the application-specific
    parameters — the "standard exercise" the paper defers to
    (Sec. 4.2) and motivates in its conclusion: the quality of the
    optimized protocol parameters depends on parameters that can only
    be estimated, so their influence must be quantified.

    The instrument is the log-log {e elasticity}
    ([d log output / d log parameter], a dimensionless local
    sensitivity) of the mean cost to one {!knob}. *)

type knob = {
  name : string;
  value : float;  (** Current value of the parameter. *)
  apply : Params.t -> float -> Params.t;
      (** Rebuild the scenario with a new value for this parameter. *)
}

val standard_knobs : Params.t -> knob list
(** The knobs every scenario has: occupancy [q], postage [c], error
    cost [E]. *)

val cost_elasticity : Params.t -> knob -> n:int -> r:float -> float
(** Elasticity of [C(n, r)] with respect to the knob at its current
    value: 0 for a knob at 0 whose cost there is finite and positive
    (e.g. [q] with no other host, or [E = 0]). *)
