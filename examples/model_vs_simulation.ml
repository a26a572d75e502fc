(* Three independent routes to the paper's quantities must agree:

   1. the closed forms, Eqs. 3 and 4;
   2. a linear-algebra solve of the Sec. 4.1 DRM matrices;
   3. Monte-Carlo simulation of the protocol itself: the query engine's
      Monte-Carlo route, which samples reply delays from F_X, and the
      packet-level protocol on a lossy broadcast link.

     dune exec examples/model_vs_simulation.exe
*)

let () =
  (* A collision-heavy scenario so simulation converges quickly: a
     crowded 1024-address pool with 300 occupied, lossy probes. *)
  let pool_size = 1024 and occupied = 300 in
  let q = float_of_int occupied /. float_of_int pool_size in
  let delay = Dist.Families.shifted_exponential ~mass:0.9 ~rate:2. ~delay:0.5 () in
  let p =
    Zeroconf.Params.v ~name:"crowded-lan" ~delay ~q ~probe_cost:1.
      ~error_cost:100.
  in
  let n = 3 and r = 1. in
  Format.printf "%a@.n = %d, r = %g@.@." Zeroconf.Params.pp p n r;

  (* Routes 1 and 2. *)
  let drm = Zeroconf.Drm.build p ~n ~r in
  Format.printf "analytic (Eq. 3) cost  = %.5f@." (Zeroconf.Cost.mean p ~n ~r);
  Format.printf "matrix DRM cost        = %.5f@." (Zeroconf.Drm.mean_cost drm);
  Format.printf "analytic (Eq. 4) error = %.5f@."
    (Zeroconf.Reliability.error_probability p ~n ~r);
  Format.printf "matrix DRM error       = %.5f@.@." (Zeroconf.Drm.error_probability drm);

  (* Route 3a: the query engine's Monte-Carlo route, sampling actual
     reply delays from F_X; cost and error at one point share one
     sampling stream. *)
  let accuracy = Engine.Query.Sampled { trials = 20_000; seed = 7 } in
  let mc quantity = Engine.Query.point ~accuracy quantity p ~n ~r in
  Format.printf "F_X-sampling simulation (20000 trials):@.";
  Array.iter
    (fun (a : Engine.Answer.t) ->
      let lo, hi = Option.get (Engine.Answer.ci a 0) in
      Format.printf "  %s: 1 point, %d evals -> %.6g [%.6g, %.6g]@." a.backend
        a.evals (Engine.Answer.scalar a 0) lo hi)
    (Engine.Executor.eval_batch
       [| mc Engine.Query.Mean_cost; mc Engine.Query.Error_probability |]);
  Format.printf "@.";

  (* Route 3b: the full packet-level network.  The combined probe-trip,
     processing and reply-trip stochastics are configured so the
     end-to-end reply behaviour matches F_X: one-way delays of d/2 each
     leg, exponential processing, and per-leg loss 1 - sqrt 0.9. *)
  let rng = Numerics.Rng.create 7 in
  let config =
    Netsim.Newcomer.drm_config ~n ~r ~probe_cost:p.Zeroconf.Params.probe_cost
      ~error_cost:p.Zeroconf.Params.error_cost
  in
  let leg_loss = 1. -. sqrt 0.9 in
  let sample =
    Netsim.Scenario.run_detailed ~loss:leg_loss
      ~one_way:(Dist.Families.deterministic ~delay:0.25 ())
      ~processing:(Dist.Families.exponential ~rate:2. ())
      ~occupied ~pool_size ~config ~trials:4_000 ~rng ()
  in
  Format.printf "packet-level simulation:@.%a@." Netsim.Metrics.pp_aggregate
    (Netsim.Metrics.aggregate sample)
