type verification = {
  analytic : float;
  estimate : Dtmc.Importance.estimate;
  covered : bool;
}

let verify_error_probability ~trials ~rng (p : Params.t) ~n ~r =
  let drm = Drm.build p ~n ~r in
  let proposal = Dtmc.Importance.boosted_proposal drm.Drm.chain ~toward:drm.Drm.error in
  let estimate =
    Dtmc.Importance.estimate_absorption ~trials ~rng ~proposal drm.Drm.chain
      ~from:drm.Drm.start ~into:drm.Drm.error
  in
  let analytic = Reliability.error_probability p ~n ~r in
  { analytic;
    estimate;
    covered =
      analytic >= estimate.Dtmc.Importance.ci_lo
      && analytic <= estimate.Dtmc.Importance.ci_hi }
