(* The full measurement-driven workflow the paper calls for (Sec. 3.2:
   "Preferably, F_X should be based on measurements"):

   1. run a measurement campaign on the (simulated) network: send echo
      probes to a configured host and record reply delays and losses;
   2. fit the paper's defective shifted-exponential F_X to the data
      (plus a lossy exponential of the same mean, without the round-trip
      floor, as the alternative);
   3. feed the fitted distribution to the optimizer and compare the
      recommended (n, r) against the one computed from the network's
      true parameters.

     dune exec examples/measured_workflow.exe
*)

let () =
  let rng = Numerics.Rng.create 2026 in

  (* ----- ground truth: the hidden network parameters ----- *)
  let true_loss = 0.02 and true_rate = 8. and true_delay = 0.12 in
  let truth =
    Dist.Families.shifted_exponential ~mass:(1. -. true_loss) ~rate:true_rate
      ~delay:true_delay ()
  in
  Format.printf "hidden truth: d = %.3f, lambda = %.1f, loss = %.3f@.@."
    true_delay true_rate true_loss;

  (* ----- 1. measurement campaign: 2000 echo probes ----- *)
  let probes = 2000 in
  let delays = ref [] and losses = ref 0 in
  for _ = 1 to probes do
    match truth.Dist.Distribution.sample rng with
    | Some d -> delays := d :: !delays
    | None -> incr losses
  done;
  let samples = Array.of_list !delays in
  Format.printf "measured %d replies, %d losses@.@." (Array.length samples) !losses;

  (* ----- 2. fit ----- *)
  let mle = Dist.Fit.shifted_exponential_mle ~losses:!losses samples in
  Format.printf "fitted shifted-exp (MLE): d = %.4f, lambda = %.2f, loss = %.4f@."
    mle.Dist.Fit.delay mle.Dist.Fit.rate mle.Dist.Fit.loss;
  let no_floor =
    Dist.Families.shifted_exponential ~mass:(1. -. mle.Dist.Fit.loss)
      ~rate:(1. /. Numerics.Safe_float.mean samples) ~delay:0. ()
  in
  Format.printf "fitted alternative:       %s@.@." no_floor.Dist.Distribution.name;
  let q_fit = Dist.Fit.assess ~losses:!losses (Dist.Fit.to_distribution mle) samples in
  let q_alt = Dist.Fit.assess ~losses:!losses no_floor samples in
  Format.printf "fit quality (KS distance): shifted-exp %.4f, no floor %.4f@.@."
    q_fit.Dist.Fit.ks_statistic q_alt.Dist.Fit.ks_statistic;

  (* ----- 3. optimize on fitted vs true parameters ----- *)
  let scenario delay_dist name =
    Zeroconf.Params.v ~name ~delay:delay_dist
      ~q:(Zeroconf.Params.q_of_hosts 1000) ~probe_cost:1. ~error_cost:1e10
  in
  let report name p =
    let o = Zeroconf.Optimize.global_optimum p in
    Format.printf "%-18s n = %d, r = %.4f, cost %.4f, error %.3g@." name
      o.Zeroconf.Optimize.n o.Zeroconf.Optimize.r o.Zeroconf.Optimize.cost
      o.Zeroconf.Optimize.error_prob;
    o
  in
  let o_true = report "true parameters:" (scenario truth "true") in
  let o_fit =
    report "fitted (MLE):" (scenario (Dist.Fit.to_distribution mle) "fitted")
  in
  let o_alt = report "fitted (no floor):" (scenario no_floor "no-floor") in

  (* how much does the fitted recommendation cost on the TRUE network? *)
  let regret (o : Zeroconf.Optimize.point) =
    Zeroconf.Cost.mean (scenario truth "eval") ~n:o.Zeroconf.Optimize.n
      ~r:o.Zeroconf.Optimize.r
    -. o_true.Zeroconf.Optimize.cost
  in
  Format.printf
    "@.regret of deploying the fitted design on the true network:@.\
    \  shifted-exp fit: %+.4f cost units@.\
    \  no-floor fit:    %+.4f cost units@."
    (regret o_fit) (regret o_alt)
