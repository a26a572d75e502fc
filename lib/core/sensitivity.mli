(** Sensitivity of the model outputs to the application-specific
    parameters — the "standard exercise" the paper defers to
    (Sec. 4.2) and motivates in its conclusion: the quality of the
    optimized protocol parameters depends on parameters that can only
    be estimated, so their influence must be quantified.

    Two instruments are provided: log-log {e elasticities}
    ([d log output / d log parameter], a dimensionless local
    sensitivity) and {e tornado} sweeps (output swing when one
    parameter moves by a fixed factor while the rest stay put). *)

type knob = {
  name : string;
  value : float;  (** Current value of the parameter. *)
  apply : Params.t -> float -> Params.t;
      (** Rebuild the scenario with a new value for this parameter. *)
}

val standard_knobs : Params.t -> knob list
(** The knobs every scenario has: occupancy [q], postage [c], error
    cost [E]. *)

val shifted_exp_knobs :
  loss:float -> rate:float -> delay:float -> knob list
(** Knobs for the paper's shifted-exponential [F_X]: the loss
    probability [1 - l], the reply rate [lambda], and the round-trip
    delay [d].  The closure rebuilds the distribution around the
    perturbed value, holding the other two at the given baselines. *)

val cost_elasticity : Params.t -> knob -> n:int -> r:float -> float
(** Elasticity of [C(n, r)] with respect to the knob at its current
    value: 0 for a knob at 0 whose cost there is finite and positive
    (e.g. [q] with no other host, or [E = 0]). *)

type tornado_entry = {
  knob_name : string;
  low : float;   (** Output at [value / swing]. *)
  base : float;  (** Output at the current value. *)
  high : float;  (** Output at [value * swing]. *)
}

val tornado :
  ?swing:float -> output:(Params.t -> float) -> Params.t -> knob list ->
  tornado_entry list
(** One-at-a-time sweep with multiplicative [swing] (default [2.]),
    sorted by descending output range. *)
