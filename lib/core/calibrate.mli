(** The Sec. 4.5 inverse problem: which costs make the draft's
    parameters optimal?

    Given the network side of a scenario (delay distribution and
    occupancy [q]) and a target protocol setting [(n_t, r_t)] — the
    Internet-draft's [(4, 2)] or [(4, 0.2)] — find the error cost [E]
    and probe postage [c] under which [(n_t, r_t)] minimizes the mean
    total cost.

    The algorithm exploits that Eq. 3 is affine in [E]: writing
    [C_n(r) = (A(r) + E B(r)) / D(r)], stationarity of [C_(n_t)] at
    [r_t] pins [E] to

    {v E = (A D' - A' D) / (B' D - B D')  at r = r_t, v}

    which is (nearly) independent of [c].  The postage is then the
    {e smallest} [c] at which [n_t] becomes the globally cost-optimal
    probe count — below it, a cheaper-postage design prefers more,
    shorter probes.  On the paper's two worst-case scenarios this
    yields [E = 5.7e20, c = 3.5] and [E = 5.6e34, c = 0.5], matching
    the paper's [5e20 / 3.5] and [1e35 / 0.5] up to its one-digit
    rounding. *)

type result = {
  error_cost : float;  (** Calibrated [E]. *)
  probe_cost : float;  (** Calibrated [c] (threshold postage). *)
  optimum : Optimize.point;
      (** Global optimum under the calibrated costs — should equal the
          target [(n_t, r_t)]. *)
  r_residual : float;
      (** [|r_opt(n_t) - r_t|] under the calibrated costs. *)
}

val run : Params.t -> n:int -> r:float -> result
(** Full calibration.  The scenario's own cost fields are ignored (they
    are what is being solved for).  The postage search is capped at
    [c = 64] and bisects [c] to [1e-3].  Raises [Failure] if no postage
    in [(0, 64]] makes [n_t] optimal, or when the stationarity condition
    has no positive solution (e.g. [r] below the round-trip delay, where
    the cost is locally flat). *)
