(* Benchmark and reproduction harness.

   Part 1 prints, for every evaluation artifact of the paper (Figures
   2-6, Sec. 4.4, Sec. 4.5, Sec. 6, plus this repo's validation and
   ablation experiments), the rows/series the paper reports, next to
   the paper's own numbers where it states them.

   Part 2 times the machinery behind each artifact with Bechamel (one
   Test.make per artifact, plus the ablation pairs from DESIGN.md). *)

open Bechamel
open Toolkit

let line () = print_endline (String.make 78 '-')

let section title =
  line ();
  Printf.printf "%s\n" title;
  line ()

(* ------------------------------------------------------------------ *)
(* Part 1: reproduction                                                *)

let fig2_scenario = Zeroconf.Params.figure2

let reproduce_fig2 () =
  section "Figure 2 -- cost functions C_1 .. C_8 (figure2 scenario)";
  Printf.printf "paper: C_1, C_2 invisible (astronomical); minima ordered \
                 C_3 < C_4 < ... < C_8;\nhigher n -> smaller r_opt\n\n";
  let table =
    Output.Table.create
      ~columns:
        [ ("n", Output.Table.Right); ("r_opt", Output.Table.Right);
          ("C_n(r_opt)", Output.Table.Right); ("C_n(1)", Output.Table.Right);
          ("C_n(2)", Output.Table.Right); ("C_n(4)", Output.Table.Right) ]
  in
  for n = 1 to 8 do
    let opt = Zeroconf.Optimize.optimal_r fig2_scenario ~n in
    Output.Table.add_row table
      [ string_of_int n;
        Printf.sprintf "%.4f" opt.Numerics.Minimize.x;
        Printf.sprintf "%.6g" opt.Numerics.Minimize.fx;
        Printf.sprintf "%.6g" (Zeroconf.Cost.mean fig2_scenario ~n ~r:1.);
        Printf.sprintf "%.6g" (Zeroconf.Cost.mean fig2_scenario ~n ~r:2.);
        Printf.sprintf "%.6g" (Zeroconf.Cost.mean fig2_scenario ~n ~r:4.) ]
  done;
  print_string (Output.Table.to_text table)

let reproduce_fig3 () =
  section "Figure 3 -- N(r): optimal probe count for given r";
  Printf.printf "paper: piecewise-constant, non-increasing steps\n\n";
  (* report the switching points of the step function *)
  let grid = Numerics.Grid.linspace 0.05 6. 400 in
  let previous = ref (-1) in
  Printf.printf "  r        N(r)\n";
  Array.iter
    (fun r ->
      let n, _ = Zeroconf.Optimize.optimal_n fig2_scenario ~r in
      if n <> !previous then begin
        Printf.printf "  %-7.3f  %d\n" r n;
        previous := n
      end)
    grid

let reproduce_fig4 () =
  section "Figure 4 -- minimal-cost envelope C_min(r)";
  let table =
    Output.Table.create
      ~columns:
        [ ("r", Output.Table.Right); ("N(r)", Output.Table.Right);
          ("C_min(r)", Output.Table.Right) ]
  in
  List.iter
    (fun r ->
      let n, cost = Zeroconf.Optimize.optimal_n fig2_scenario ~r in
      Output.Table.add_row table
        [ Printf.sprintf "%.2f" r; string_of_int n; Printf.sprintf "%.5g" cost ])
    [ 0.25; 0.5; 0.75; 1.; 1.5; 2.; 2.5; 3.; 4.; 5.; 6. ];
  print_string (Output.Table.to_text table)

let reproduce_fig5_6 () =
  section "Figures 5/6 -- log10 error probability E(n, r), and E(N(r), r)";
  Printf.printf
    "paper: log-scale curves decreasing in r and n; the envelope E(N(r), r)\n\
     is sawtoothed and stays roughly within [1e-54, 1e-35]\n\n";
  let table =
    Output.Table.create
      ~columns:
        ([ ("r", Output.Table.Right) ]
        @ List.map (fun n -> (Printf.sprintf "n=%d" n, Output.Table.Right))
            [ 1; 2; 3; 4; 5; 6; 7; 8 ]
        @ [ ("N(r)", Output.Table.Right); ("env", Output.Table.Right) ])
  in
  List.iter
    (fun r ->
      let cells =
        List.map
          (fun n ->
            Printf.sprintf "%.1f"
              (Zeroconf.Reliability.log10_error_probability fig2_scenario ~n ~r))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ]
      in
      let n_opt, _ = Zeroconf.Optimize.optimal_n fig2_scenario ~r in
      Output.Table.add_row table
        ((Printf.sprintf "%.2f" r :: cells)
        @ [ string_of_int n_opt;
            Printf.sprintf "%.1f"
              (Zeroconf.Reliability.log10_error_probability fig2_scenario
                 ~n:n_opt ~r) ]))
    [ 0.5; 1.; 1.5; 2.; 3.; 4.; 5.; 6. ];
  print_string (Output.Table.to_text table);
  (* the paper's band claim, checked on a fine grid *)
  let env_min = ref 0. and env_max = ref (-1000.) in
  Array.iter
    (fun r ->
      let n, _ = Zeroconf.Optimize.optimal_n fig2_scenario ~r in
      let v = Zeroconf.Reliability.log10_error_probability fig2_scenario ~n ~r in
      if v < !env_min then env_min := v;
      if v > !env_max then env_max := v)
    (Numerics.Grid.linspace 0.4 6. 300);
  Printf.printf "\nenvelope range over r in [0.4, 6]: log10 E in [%.1f, %.1f]\n"
    !env_min !env_max;
  Printf.printf "paper:                              log10 E in [-54, -35] (roughly)\n"

let reproduce_sec44 () =
  section "Sec. 4.4 -- minimal useful probe count";
  Printf.printf "nu(figure2)            = %d   (paper: 3)\n"
    (Engine.Experiments.section_44_nu ());
  Printf.printf "nu(realistic-ethernet) = %d   (paper Sec. 6 context: 2)\n"
    (Zeroconf.Optimize.min_useful_probes Zeroconf.Params.realistic_ethernet)

let reproduce_sec45 () =
  section "Sec. 4.5 -- calibrated costs making the draft's (n, r) optimal";
  List.iter
    (fun (row : Engine.Experiments.calibration_row) ->
      let d = row.Engine.Experiments.derived in
      Printf.printf "%s (target n=%d, r=%g):\n" row.Engine.Experiments.label
        row.Engine.Experiments.target_n row.Engine.Experiments.target_r;
      Printf.printf "  E = %-12.4g (paper: %.2g)\n" d.Zeroconf.Calibrate.error_cost
        row.Engine.Experiments.paper_error_cost;
      Printf.printf "  c = %-12.4g (paper: %.2g; ours is the exact threshold)\n"
        d.Zeroconf.Calibrate.probe_cost row.Engine.Experiments.paper_probe_cost;
      Printf.printf "  optimum under calibrated costs: n = %d, r = %.3f\n"
        d.Zeroconf.Calibrate.optimum.Zeroconf.Optimize.n
        d.Zeroconf.Calibrate.optimum.Zeroconf.Optimize.r)
    (Engine.Experiments.section_45 ())

let reproduce_sec6 () =
  section "Sec. 6 -- assessment on a realistic network";
  Format.printf "%a@." Zeroconf.Assessment.pp (Engine.Experiments.section_6 ());
  Printf.printf "paper: optimal n = 2, r ~= 1.75, error probability ~= 4e-22\n"

let reproduce_validation () =
  section "Validation (V1) -- Eq. 3/4 vs DRM matrix solve vs Monte-Carlo";
  let table =
    Output.Table.create
      ~columns:
        [ ("n", Output.Table.Right); ("r", Output.Table.Right);
          ("C eq3", Output.Table.Right); ("C matrix", Output.Table.Right);
          ("C sim 95% CI", Output.Table.Left); ("E eq4", Output.Table.Right);
          ("E matrix", Output.Table.Right); ("E sim 95% CI", Output.Table.Left) ]
  in
  List.iter
    (fun (row : Engine.Experiments.validation_row) ->
      Output.Table.add_row table
        [ string_of_int row.Engine.Experiments.n;
          Printf.sprintf "%.2f" row.Engine.Experiments.r;
          Printf.sprintf "%.4f" row.Engine.Experiments.analytic_cost;
          Printf.sprintf "%.4f" row.Engine.Experiments.matrix_cost;
          Printf.sprintf "[%.4f, %.4f]"
            row.Engine.Experiments.simulated_cost.Dtmc.Simulate.ci_lo
            row.Engine.Experiments.simulated_cost.Dtmc.Simulate.ci_hi;
          Printf.sprintf "%.5f" row.Engine.Experiments.analytic_error;
          Printf.sprintf "%.5f" row.Engine.Experiments.matrix_error;
          Printf.sprintf "[%.5f, %.5f]"
            row.Engine.Experiments.simulated_error.Dtmc.Simulate.ci_lo
            row.Engine.Experiments.simulated_error.Dtmc.Simulate.ci_hi ])
    (Engine.Experiments.validation ~trials:10_000 ());
  print_string (Output.Table.to_text table)

let reproduce_refinements () =
  section "Extension (A2) -- the Sec. 3.1 refinements the paper abstracts away";
  Printf.printf
    "attempt-indexed model on a crowded 256-address pool (200 occupied),\n\
     n = 3, r = 1, F_X = shifted-exp(d = 0.5, rate = 2, loss 0.1):\n\n";
  let crowded =
    Zeroconf.Params.v ~name:"crowded"
      ~delay:(Dist.Families.shifted_exponential ~mass:0.9 ~rate:2. ~delay:0.5 ())
      ~q:0. ~probe_cost:1. ~error_cost:100.
  in
  let table =
    Output.Table.create
      ~columns:
        [ ("refinement", Output.Table.Left); ("mean cost", Output.Table.Right);
          ("error prob", Output.Table.Right); ("mean time (s)", Output.Table.Right);
          ("mean attempts", Output.Table.Right) ]
  in
  List.iter
    (fun (label, (a : Zeroconf.Attempts.analysis)) ->
      Output.Table.add_row table
        [ label;
          Printf.sprintf "%.4f" a.Zeroconf.Attempts.mean_cost;
          Printf.sprintf "%.4f" a.Zeroconf.Attempts.error_probability;
          Printf.sprintf "%.4f" a.Zeroconf.Attempts.mean_time;
          Printf.sprintf "%.4f" a.Zeroconf.Attempts.mean_attempts ])
    (Zeroconf.Attempts.compare_refinements crowded ~occupied:200 ~pool:256 ~n:3
       ~r:1. ());
  print_string (Output.Table.to_text table)

let reproduce_latency () =
  section "Extension (A3) -- configuration-time distribution (figure2, draft n=4, r=2)";
  let dist = Zeroconf.Latency.periods fig2_scenario ~n:4 ~r:2. in
  Printf.printf "mean = %.4f s; quantiles: 50%% %.3g s, 99%% %.3g s, 99.99%% %.3g s\n"
    (Zeroconf.Latency.mean dist)
    (Zeroconf.Latency.quantile dist 0.5)
    (Zeroconf.Latency.quantile dist 0.99)
    (Zeroconf.Latency.quantile dist 0.9999);
  Printf.printf "P(wait > 8 s) = %.3e   (the paper's 'barely acceptable' threshold)\n"
    (Zeroconf.Latency.exceeds dist 8.)

let reproduce_pareto () =
  section "Extension (A4) -- cost/reliability Pareto front (figure2)";
  let front = Engine.Tradeoff.front ~n_max:10 ~r_points:150 ~r_max:6. fig2_scenario in
  Printf.printf "front size: %d designs; endpoints and knee:\n" (List.length front);
  let show label (d : Engine.Tradeoff.design) =
    Printf.printf "  %-9s n = %2d, r = %5.2f: cost %8.2f, log10 error %.1f\n" label
      d.Engine.Tradeoff.n d.Engine.Tradeoff.r d.Engine.Tradeoff.cost
      d.Engine.Tradeoff.log10_error
  in
  (match front with d :: _ -> show "cheapest" d | [] -> ());
  (match List.rev front with d :: _ -> show "safest" d | [] -> ());
  (match Engine.Tradeoff.knee front with
  | Some d -> show "knee" d
  | None -> ());
  Printf.printf
    "paper Sec. 5: 'optimal reliability and optimal cost can not be achieved\n\
     at the same time' -- the front above is that statement, quantified.\n"

let reproduce_maintenance () =
  section "Extension (A5) -- maintenance phase: operational reading of E";
  let rng = Numerics.Rng.create 13 in
  let est =
    Netsim.Maintenance.estimate_error_cost ~background_rate:0.1 ~loss:0.01
      ~one_way:(Dist.Families.exponential ~rate:40. ())
      ~occupied:100 ~pool_size:1024
      ~config:(Netsim.Newcomer.drm_config ~n:4 ~r:2. ~probe_cost:0. ~error_cost:0.)
      ~trials:60 ~rng ()
  in
  Printf.printf
    "60 simulated collisions (bg ARP 0.1/s, loss 1%%):\n\
    \  mean disruption %.1f s (max %.1f s), %.2f broken connections,\n\
    \  suggested E ~ %.1f on the waiting-seconds scale\n"
    est.Netsim.Maintenance.disruption.Numerics.Stats.mean
    est.Netsim.Maintenance.disruption.Numerics.Stats.max
    est.Netsim.Maintenance.mean_broken
    est.Netsim.Maintenance.suggested_error_cost

let reproduce_rare () =
  section "Validation (V2) -- Eq. 4 verified in the deep tail by importance sampling";
  Printf.printf
    "plain Monte-Carlo is blind below ~1e-5; a boosted proposal with\n\
     likelihood-ratio weights confirms the analytic error probability at\n\
     every depth (20k paths each):\n\n";
  let rng = Numerics.Rng.create 11 in
  let table =
    Output.Table.create
      ~columns:
        [ ("scenario", Output.Table.Left); ("(n, r)", Output.Table.Left);
          ("Eq. 4", Output.Table.Right); ("IS estimate", Output.Table.Right);
          ("95% CI", Output.Table.Left); ("rel. err", Output.Table.Right);
          ("covered", Output.Table.Right) ]
  in
  List.iter
    (fun (name, p, n, r) ->
      let v = Zeroconf.Rare.verify_error_probability ~trials:20_000 ~rng p ~n ~r in
      Output.Table.add_row table
        [ name;
          Printf.sprintf "(%d, %g)" n r;
          Printf.sprintf "%.3e" v.Zeroconf.Rare.analytic;
          Printf.sprintf "%.3e" v.Zeroconf.Rare.estimate.Dtmc.Importance.mean;
          Printf.sprintf "[%.2e, %.2e]" v.Zeroconf.Rare.estimate.Dtmc.Importance.ci_lo
            v.Zeroconf.Rare.estimate.Dtmc.Importance.ci_hi;
          Printf.sprintf "%.3f" v.Zeroconf.Rare.estimate.Dtmc.Importance.relative_error;
          string_of_bool v.Zeroconf.Rare.covered ])
    [ ( "moderate",
        Zeroconf.Params.v ~name:"m"
          ~delay:(Dist.Families.shifted_exponential ~mass:0.9 ~rate:2. ~delay:0.5 ())
          ~q:0.3 ~probe_cost:1. ~error_cost:100.,
        3, 1. );
      ( "deep",
        Zeroconf.Params.v ~name:"d"
          ~delay:(Dist.Families.shifted_exponential ~mass:0.99 ~rate:5. ~delay:0.2 ())
          ~q:0.1 ~probe_cost:1. ~error_cost:100.,
        4, 1. );
      ("figure2", fig2_scenario, 3, 1.5);
      ("figure2 draft", fig2_scenario, 4, 2.) ];
  print_string (Output.Table.to_text table)

let reproduce_adaptive () =
  section "Extension (A6) -- adaptive per-attempt (n, r) via the MDP solver";
  let crowded =
    Zeroconf.Params.v ~name:"crowded"
      ~delay:(Dist.Families.shifted_exponential ~mass:0.9 ~rate:2. ~delay:0.5 ())
      ~q:0. ~probe_cost:1. ~error_cost:100.
  in
  let base = Zeroconf.Attempts.no_refinement ~occupied:200 ~pool:256 () in
  let report label refinement =
    let s = Zeroconf.Adaptive.solve crowded ~refinement () in
    Printf.printf "%-22s fixed %.4f  adaptive %.4f  improvement %.4f\n" label
      s.Zeroconf.Adaptive.fixed_cost s.Zeroconf.Adaptive.expected_cost
      s.Zeroconf.Adaptive.improvement
  in
  report "memoryless (paper)" base;
  report "blacklist" { base with Zeroconf.Attempts.blacklist = true };
  report "rate limit (2, 30 s)"
    { base with Zeroconf.Attempts.rate_limit = Some (2, 30.) };
  Printf.printf
    "\nwith memoryless occupancy the optimal schedule is stationary and the\n\
     improvement is exactly zero (the paper's fixed-(n, r) setting is optimal\n\
     there); harsh rate limiting is where adaptivity pays.\n"

let reproduce_multi () =
  section "Extension (M1) -- simultaneous newcomers (the Uppaal companion setting)";
  Printf.printf
    "packet-level simulation, 32-address pool with 8 occupied, loss 10%%,\n\
     immediate abort + rival-probe rule + announcements (the draft,\n\
     faithfully); per-newcomer collision rate vs crowd size:\n\n";
  let rng = Numerics.Rng.create 17 in
  let config =
    { (Netsim.Newcomer.drm_config ~n:3 ~r:0.3 ~probe_cost:0. ~error_cost:0.) with
      Netsim.Newcomer.immediate_abort = true;
      Netsim.Newcomer.avoid_failed = true;
      Netsim.Newcomer.announce = Some (2, 0.5) }
  in
  let rates =
    Netsim.Multi.collision_rate_vs_newcomers ~loss:0.1
      ~one_way:(Dist.Families.uniform ~lo:0.005 ~hi:0.05 ())
      ~occupied:8 ~pool_size:32 ~config ~trials:60 ~counts:[ 1; 2; 4; 8; 16 ]
      ~rng ()
  in
  List.iter
    (fun (count, rate) ->
      Printf.printf "  %2d simultaneous newcomers: collision rate %.4f\n" count rate)
    rates;
  Printf.printf
    "\nthe rival-probe rule keeps simultaneous configurations apart even\n\
     when half the pool is being contested at once.\n"

let reproduce_all () =
  reproduce_fig2 ();
  reproduce_fig3 ();
  reproduce_fig4 ();
  reproduce_fig5_6 ();
  reproduce_sec44 ();
  reproduce_sec45 ();
  reproduce_sec6 ();
  reproduce_validation ();
  reproduce_refinements ();
  reproduce_latency ();
  reproduce_pareto ();
  reproduce_maintenance ();
  reproduce_adaptive ();
  reproduce_rare ();
  reproduce_multi ()

(* ------------------------------------------------------------------ *)
(* Part 2: bechamel timing benches, one per artifact + ablations       *)

let r_grid = Numerics.Grid.linspace 0.05 6. 48

(* The pre-kernel [Optimize.optimal_n], verbatim: a point-wise
   [Cost.mean] rebuild per candidate n.  Kept here as the baseline the
   incremental kernel is benchmarked (and smoke-checked) against. *)
let optimal_n_direct ?(n_max = 4096) ?(patience = 24) (p : Zeroconf.Params.t) ~r =
  if r < 0. then invalid_arg "optimal_n_direct: negative r";
  let first_useful =
    let rec find i =
      if i > n_max then n_max
      else if Zeroconf.Probes.no_answer p ~i ~r < 1. then i
      else find (i + 1)
    in
    if r = 0. then n_max else find 1
  in
  let best_n = ref 1 and best_cost = ref (Zeroconf.Cost.mean p ~n:1 ~r) in
  let misses = ref 0 in
  let n = ref (max 1 first_useful) in
  while !misses < patience && !n <= n_max do
    let c = Zeroconf.Cost.mean p ~n:!n ~r in
    if c < !best_cost then begin
      best_n := !n;
      best_cost := c;
      misses := 0
    end else incr misses;
    incr n
  done;
  (!best_n, !best_cost)

(* a power-of-two lattice grid r = k/32 *)
let kernel_grid = Array.init 96 (fun k -> float_of_int (k + 1) /. 32.)

let bench_tests =
  let stage = Staged.stage in
  Test.make_grouped ~name:"zeroconf"
    [ Test.make ~name:"fig2/cost-curves"
        (stage (fun () ->
             for n = 1 to 8 do
               Array.iter
                 (fun r -> ignore (Zeroconf.Cost.mean fig2_scenario ~n ~r))
                 r_grid
             done));
      Test.make ~name:"fig3/optimal-n"
        (stage (fun () ->
             Array.iter
               (fun r -> ignore (Zeroconf.Optimize.optimal_n fig2_scenario ~r))
               r_grid));
      Test.make ~name:"fig4/min-cost"
        (stage (fun () ->
             Array.iter
               (fun r -> ignore (Zeroconf.Optimize.min_cost fig2_scenario ~r))
               r_grid));
      Test.make ~name:"fig5/error-prob"
        (stage (fun () ->
             for n = 1 to 8 do
               Array.iter
                 (fun r ->
                   ignore
                     (Zeroconf.Reliability.log10_error_probability fig2_scenario
                        ~n ~r))
                 r_grid
             done));
      Test.make ~name:"fig6/error-under-optimal-n"
        (stage (fun () ->
             Array.iter
               (fun r ->
                 ignore (Zeroconf.Optimize.error_under_optimal_n fig2_scenario ~r))
               r_grid));
      Test.make ~name:"sec44/nu"
        (stage (fun () -> ignore (Engine.Experiments.section_44_nu ())));
      Test.make ~name:"sec45/calibrate-E"
        (stage (fun () ->
             ignore
               (Zeroconf.Calibrate.error_cost_for_stationarity
                  (Zeroconf.Params.with_costs ~probe_cost:3.5
                     Zeroconf.Params.wireless_worst_case)
                  ~n:4 ~r:2.)));
      Test.make ~name:"sec6/global-optimum"
        (stage (fun () ->
             ignore
               (Zeroconf.Optimize.global_optimum Zeroconf.Params.realistic_ethernet)));
      Test.make ~name:"validate/drm-matrix-solve"
        (stage (fun () ->
             let drm = Zeroconf.Drm.build fig2_scenario ~n:4 ~r:2. in
             ignore (Zeroconf.Drm.mean_cost drm);
             ignore (Zeroconf.Drm.error_probability drm)));
      (let rng = Numerics.Rng.create 1 in
       let delay =
         Dist.Families.shifted_exponential ~mass:0.9 ~rate:2. ~delay:0.5 ()
       in
       let config =
         Netsim.Newcomer.drm_config ~n:3 ~r:1. ~probe_cost:1. ~error_cost:100.
       in
       Test.make ~name:"validate/aggregate-sim-100"
         (stage (fun () ->
              ignore
                (Netsim.Scenario.run_aggregate ~delay ~occupied:256
                   ~pool_size:1024 ~config ~trials:100 ~rng ()))));
      (* ablation A1a: literal Eq. 1 product vs telescoped survival form *)
      Test.make ~name:"ablate/pi-literal"
        (stage (fun () ->
             Array.iter
               (fun r ->
                 for i = 1 to 8 do
                   ignore (Zeroconf.Probes.no_answer_literal fig2_scenario ~i ~r)
                 done)
               r_grid));
      Test.make ~name:"ablate/pi-telescoped"
        (stage (fun () ->
             Array.iter
               (fun r ->
                 for i = 1 to 8 do
                   ignore (Zeroconf.Probes.no_answer fig2_scenario ~i ~r)
                 done)
               r_grid));
      (* incremental kernel vs direct point-wise rebuild: the same
         n-scan artifacts, streamed and not *)
      Test.make ~name:"kernel/optimal-n-direct"
        (stage (fun () ->
             Array.iter
               (fun r -> ignore (optimal_n_direct fig2_scenario ~r))
               kernel_grid));
      Test.make ~name:"kernel/optimal-n-kernel"
        (stage (fun () ->
             Array.iter
               (fun r -> ignore (Zeroconf.Optimize.optimal_n fig2_scenario ~r))
               kernel_grid));
      Test.make ~name:"kernel/cost-sweep-direct"
        (stage (fun () ->
             Array.iter
               (fun r -> ignore (Zeroconf.Cost.mean fig2_scenario ~n:32 ~r))
               kernel_grid));
      (* the same sweep through the query engine: the pipeline layers
         (query validation, plan compilation, cache miss, provenance)
         must be free next to the kernel they route to; a fresh cache
         per call keeps every iteration an honest miss *)
      Test.make ~name:"kernel/cost-sweep-engine"
        (stage (fun () ->
             ignore
               (Engine.Executor.eval
                  ~cache:(Engine.Cache.create ())
                  (Engine.Query.r_sweep Engine.Query.Mean_cost fig2_scenario
                     ~n:32 ~rs:kernel_grid))));
      (* ablation A1b: float vs log-space cost evaluation *)
      Test.make ~name:"ablate/cost-float"
        (stage (fun () ->
             Array.iter
               (fun r -> ignore (Zeroconf.Cost.mean fig2_scenario ~n:4 ~r))
               r_grid));
      Test.make ~name:"ablate/cost-logspace"
        (stage (fun () ->
             Array.iter
               (fun r -> ignore (Zeroconf.Cost.mean_log fig2_scenario ~n:4 ~r))
               r_grid));
      (* extensions *)
      Test.make ~name:"ext/refined-attempts"
        (stage (fun () ->
             let crowded =
               Zeroconf.Params.v ~name:"crowded"
                 ~delay:
                   (Dist.Families.shifted_exponential ~mass:0.9 ~rate:2.
                      ~delay:0.5 ())
                 ~q:0. ~probe_cost:1. ~error_cost:100.
             in
             ignore
               (Zeroconf.Attempts.analyze crowded
                  (Zeroconf.Attempts.draft_refinement ~occupied:200 ~pool:256 ())
                  ~n:3 ~r:1.)));
      Test.make ~name:"ext/latency-distribution"
        (stage (fun () ->
             ignore (Zeroconf.Latency.periods ~horizon:256 fig2_scenario ~n:4 ~r:2.)));
      (let rng = Numerics.Rng.create 11 in
       Test.make ~name:"validate/importance-sampling-5k"
         (stage (fun () ->
              ignore
                (Zeroconf.Rare.verify_error_probability ~trials:5_000 ~rng
                   fig2_scenario ~n:4 ~r:2.))));
      Test.make ~name:"ext/adaptive-mdp"
        (stage (fun () ->
             let crowded =
               Zeroconf.Params.v ~name:"crowded"
                 ~delay:
                   (Dist.Families.shifted_exponential ~mass:0.9 ~rate:2.
                      ~delay:0.5 ())
                 ~q:0. ~probe_cost:1. ~error_cost:100.
             in
             ignore
               (Zeroconf.Adaptive.solve ~stages:32 crowded
                  ~refinement:
                    { (Zeroconf.Attempts.no_refinement ~occupied:200 ~pool:256 ()) with
                      Zeroconf.Attempts.rate_limit = Some (2, 30.) }
                  ())));
      Test.make ~name:"ext/pareto-front"
        (stage (fun () ->
             ignore
               (Engine.Tradeoff.front ~n_max:8 ~r_points:60 ~r_max:6.
                  fig2_scenario)));
      (* ablation A1c: dense LU vs sparse Jacobi on a 300-state chain *)
      (let n = 300 in
       let q =
         Numerics.Matrix.init ~rows:n ~cols:n (fun i j ->
             if j = i + 1 && i < n - 1 then 0.49
             else if j = i - 1 && i > 0 then 0.49
             else 0.)
       in
       let sparse = Dtmc.Sparse.of_matrix q in
       let b = Array.make n 1. in
       Test.make_grouped ~name:"ablate/solver"
         [ Test.make ~name:"dense-lu"
             (stage (fun () ->
                  ignore
                    (Numerics.Lu.solve
                       (Numerics.Matrix.sub (Numerics.Matrix.identity n) q)
                       b)));
           Test.make ~name:"sparse-jacobi"
             (stage (fun () ->
                  ignore (Dtmc.Sparse.jacobi_solve ~tol:1e-12 sparse b))) ]) ]

(* ------------------------------------------------------------------ *)
(* Serial-vs-parallel artifact pairs                                   *)

(* The same artifact body run on a one-domain pool (the pre-parallel
   code path, bit for bit) and on the default Exec pool.  [points] and
   [trials] scale the work so the smoke target stays cheap. *)
let serial_pool = Exec.Pool.create 1

let artifact_specs ~points ~trials =
  let grid = Numerics.Grid.linspace 0.05 6. points in
  [ ( "fig2/cost-curves",
      fun pool ->
        for n = 1 to 8 do
          ignore
            (Exec.Parallel.map_sweep ~pool
               (fun r -> Zeroconf.Cost.mean fig2_scenario ~n ~r)
               grid)
        done );
    ( "fig3-4/optimal-n-sweep",
      fun pool -> ignore (Zeroconf.Optimize.optimal_n_sweep ~pool fig2_scenario grid) );
    ( "fig5/error-grid",
      fun pool ->
        for n = 1 to 8 do
          ignore
            (Exec.Parallel.map_sweep ~pool
               (fun r ->
                 Zeroconf.Reliability.log10_error_probability fig2_scenario ~n ~r)
               grid)
        done );
    ( "fig6/error-envelope",
      fun pool ->
        ignore
          (Exec.Parallel.map_sweep ~pool
             (fun r -> Zeroconf.Optimize.error_under_optimal_n fig2_scenario ~r)
             grid) );
    ( "landscape/cost-surface",
      fun pool ->
        ignore
          (Exec.Parallel.init ~pool (10 * points) (fun k ->
               let n = (k / points) + 1 and r = grid.(k mod points) in
               log10 (Zeroconf.Cost.mean fig2_scenario ~n ~r))) );
    ( "netsim/multi-trials",
      fun pool ->
        let rng = Numerics.Rng.create 17 in
        let config =
          Netsim.Newcomer.drm_config ~n:3 ~r:0.3 ~probe_cost:0. ~error_cost:0.
        in
        ignore
          (Netsim.Multi.run_trials ~domains:pool ~loss:0.1
             ~one_way:(Dist.Families.uniform ~lo:0.005 ~hi:0.05 ())
             ~occupied:8 ~pool_size:32 ~newcomers:4 ~config ~trials ~rng ()) ) ]

let parallel_pair_tests () =
  let stage = Staged.stage in
  let pool = Exec.Pool.get () in
  let jobs = Exec.Pool.size pool in
  Test.make_grouped ~name:"parallel"
    (List.concat_map
       (fun (name, body) ->
         [ Test.make ~name:(name ^ "/serial") (stage (fun () -> body serial_pool));
           Test.make
             ~name:(Printf.sprintf "%s/jobs-%d" name jobs)
             (stage (fun () -> body pool)) ])
       (artifact_specs ~points:48 ~trials:16))

let wall_time body =
  let best = ref infinity in
  for _ = 1 to 5 do
    (* settle the heap first so no run pays for its predecessor's
       garbage — otherwise whichever variant is timed second absorbs
       the first one's major-GC debt and the comparison is unstable *)
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    body ();
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let write_parallel_json path =
  let pool = Exec.Pool.get () in
  let jobs = Exec.Pool.size pool in
  section (Printf.sprintf "Wall-clock serial vs parallel (jobs = %d)" jobs);
  let rows =
    List.map
      (fun (name, body) ->
        body pool (* warm call: spawns the worker domains once *);
        let serial_s = wall_time (fun () -> body serial_pool) in
        let parallel_s = wall_time (fun () -> body pool) in
        Printf.printf "  %-24s serial %8.4f s   parallel %8.4f s   speedup %.2fx\n%!"
          name serial_s parallel_s (serial_s /. parallel_s);
        (name, serial_s, parallel_s))
      (artifact_specs ~points:400 ~trials:200)
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"jobs\": %d,\n  \"artifacts\": [\n" jobs;
  List.iteri
    (fun i (name, serial_s, parallel_s) ->
      Printf.fprintf oc
        "    { \"name\": %S, \"serial_s\": %.6f, \"parallel_s\": %.6f, \
         \"speedup\": %.4f }%s\n"
        name serial_s parallel_s
        (serial_s /. parallel_s)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Kernel-vs-direct artifact pairs                                     *)

(* The n-scan artifacts evaluated both ways: the streaming kernel
   (what the library now runs) against the pre-kernel point-wise
   rebuild above.  [scale] divides the grid sizes so the smoke target
   stays cheap; the wall-clock run uses scale 1, where the dense
   envelope scans toward n_max = 4096 at the small-r end. *)
let kernel_specs ~scale =
  let lattice denom points =
    Array.init (max 1 (points / scale)) (fun k -> float_of_int (k + 1) /. denom)
  in
  (* r down to 1/4096: the first useful probe count reaches n_max *)
  let dense = lattice 4096. 512 in
  let sweep_grid = Numerics.Grid.linspace 0.05 6. (max 2 (400 / scale)) in
  [ ( "optimal-n/dense-4096",
      (fun () ->
        Array.iter (fun r -> ignore (optimal_n_direct fig2_scenario ~r)) dense),
      fun () ->
        Array.iter
          (fun r -> ignore (Zeroconf.Optimize.optimal_n fig2_scenario ~r))
          dense );
    ( "lower-envelope/dense-4096",
      (fun () ->
        ignore (Array.map (fun r -> (r, snd (optimal_n_direct fig2_scenario ~r))) dense)),
      fun () ->
        ignore (Zeroconf.Optimize.lower_envelope ~pool:serial_pool fig2_scenario dense)
    );
    ( "fig3-4/optimal-n-sweep",
      (fun () ->
        ignore
          (Exec.Parallel.map_sweep ~pool:serial_pool
             (fun r -> optimal_n_direct fig2_scenario ~r)
             sweep_grid)),
      fun () ->
        ignore
          (Zeroconf.Optimize.optimal_n_sweep ~pool:serial_pool fig2_scenario
             sweep_grid) ) ]

let write_kernel_json path =
  section "Wall-clock kernel vs direct point-wise rebuild (serial)";
  let rows =
    List.map
      (fun (name, direct, kernel) ->
        kernel () (* warm-up call *);
        let direct_s = wall_time direct in
        let kernel_s = wall_time kernel in
        Printf.printf "  %-26s direct %8.4f s   kernel %8.4f s   speedup %.1fx\n%!"
          name direct_s kernel_s (direct_s /. kernel_s);
        (name, direct_s, kernel_s))
      (kernel_specs ~scale:1)
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"n_max\": 4096,\n  \"artifacts\": [\n";
  List.iteri
    (fun i (name, direct_s, kernel_s) ->
      Printf.fprintf oc
        "    { \"name\": %S, \"direct_s\": %.6f, \"kernel_s\": %.6f, \
         \"speedup\": %.4f }%s\n"
        name direct_s kernel_s
        (direct_s /. kernel_s)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Batched vs scalar query execution                                   *)

(* Repeated-scenario workloads where batching amortizes backend work:
   the per-n figure series share each r-column's kernel cursor, and the
   tradeoff columns merge their cost and error sweeps onto one cursor. *)
let batch_specs ~points =
  let module Q = Engine.Query in
  let grid = Numerics.Grid.linspace 0.05 6. points in
  let ns = Array.init 64 (fun i -> i + 1) in
  [ ( "fig2/cost-series-n1-8",
      Array.init 8 (fun i ->
          Q.r_sweep Q.Mean_cost fig2_scenario ~n:(i + 1) ~rs:grid) );
    ( "fig5/error-series-n1-8",
      Array.init 8 (fun i ->
          Q.r_sweep Q.Log10_error fig2_scenario ~n:(i + 1) ~rs:grid) );
    ( "tradeoff/columns-n64",
      Array.append
        (Array.map (fun r -> Q.n_sweep Q.Mean_cost fig2_scenario ~ns ~r) grid)
        (Array.map (fun r -> Q.n_sweep Q.Log10_error fig2_scenario ~ns ~r) grid)
    ) ]

let write_batch_json path =
  section "Wall-clock batched vs scalar query evaluation (serial, cache off)";
  let was = Engine.Cache.enabled () in
  Engine.Cache.set_enabled false;
  Fun.protect ~finally:(fun () -> Engine.Cache.set_enabled was) @@ fun () ->
  let rows =
    List.map
      (fun (name, queries) ->
        (* pinned to the serial pool: this artifact isolates batch
           amortization; parallel scaling is BENCH_parallel.json's job *)
        ignore (Engine.Executor.eval_batch ~pool:serial_pool queries)
        (* warm-up call *);
        let scalar_s =
          wall_time (fun () ->
              Array.iter
                (fun q -> ignore (Engine.Executor.eval ~pool:serial_pool q))
                queries)
        in
        let batched_s =
          wall_time (fun () ->
              ignore (Engine.Executor.eval_batch ~pool:serial_pool queries))
        in
        Printf.printf
          "  %-26s scalar %8.4f s   batched %8.4f s   speedup %.2fx\n%!" name
          scalar_s batched_s (scalar_s /. batched_s);
        (name, Array.length queries, scalar_s, batched_s))
      (batch_specs ~points:400)
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"artifacts\": [\n";
  List.iteri
    (fun i (name, queries, scalar_s, batched_s) ->
      Printf.fprintf oc
        "    { \"name\": %S, \"queries\": %d, \"scalar_s\": %.6f, \
         \"batched_s\": %.6f, \"speedup\": %.4f }%s\n"
        name queries scalar_s batched_s
        (scalar_s /. batched_s)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

let smoke () =
  (* force a genuinely multi-domain pool even on a 1-core host *)
  let pool2 = Exec.Pool.create 2 in
  List.iter
    (fun (name, body) ->
      body serial_pool;
      body pool2;
      Printf.printf "smoke ok: %s\n" name)
    (artifact_specs ~points:8 ~trials:3);
  let grid = Numerics.Grid.linspace 0.05 6. 8 in
  let serial = Zeroconf.Optimize.optimal_n_sweep ~pool:serial_pool fig2_scenario grid in
  let parallel = Zeroconf.Optimize.optimal_n_sweep ~pool:pool2 fig2_scenario grid in
  assert (serial = parallel);
  Exec.Pool.shutdown pool2;
  print_endline "smoke ok: parallel sweep bit-identical to serial";
  (* kernel/direct agreement: the streaming scan must reproduce the
     point-wise rebuild bit for bit on every pair artifact *)
  List.iter
    (fun (name, _direct, kernel) ->
      kernel ();
      Printf.printf "smoke ok: %s (kernel)\n" name)
    (kernel_specs ~scale:64);
  Array.iter
    (fun r ->
      assert (optimal_n_direct fig2_scenario ~r
              = Zeroconf.Optimize.optimal_n fig2_scenario ~r))
    (Numerics.Grid.linspace 0.02 6. 16);
  print_endline "smoke ok: kernel scans = point-wise rebuild";
  (* query engine: the planner's default route must reproduce the
     direct evaluation bit for bit, and the crosscheck must hold all
     deterministic routes within 1e-9 on every preset *)
  let module Q = Engine.Query in
  let module A = Engine.Answer in
  let planner_value qty p ~n ~r =
    A.scalar (Engine.Executor.eval (Q.point qty p ~n ~r)).A.points.(0)
  in
  List.iter
    (fun (_, p) ->
      List.iter
        (fun (n, r) ->
          assert (planner_value Q.Mean_cost p ~n ~r = Zeroconf.Cost.mean p ~n ~r);
          assert (planner_value Q.Error_probability p ~n ~r
                  = Zeroconf.Reliability.error_probability p ~n ~r))
        [ (1, 0.5); (4, 2.); (8, 0.7) ])
    Zeroconf.Params.presets;
  print_endline "smoke ok: planner routes bit-identical to direct evaluation";
  List.iter
    (fun (name, p) ->
      let rep = Engine.Crosscheck.run ~trials:500 (Q.point Q.Mean_cost p ~n:4 ~r:2.) in
      assert (List.length rep.Engine.Crosscheck.answers = 4);
      assert (rep.Engine.Crosscheck.max_rel_divergence <= 1e-9);
      Printf.printf "smoke ok: crosscheck %s (max divergence %.2e)\n" name
        rep.Engine.Crosscheck.max_rel_divergence)
    Zeroconf.Params.presets;
  (* batched execution: values bitwise equal to scalar evaluation at
     any pool size, and a warm cache serves the whole workload without
     a single backend eval *)
  let grid8 = Numerics.Grid.linspace 0.05 6. 8 in
  let ns8 = Array.init 8 (fun i -> i + 1) in
  let workload =
    Array.concat
      [ Array.init 4 (fun i ->
            Q.r_sweep Q.Mean_cost fig2_scenario ~n:(i + 1) ~rs:grid8);
        Array.map (fun r -> Q.n_sweep Q.Log10_error fig2_scenario ~ns:ns8 ~r) grid8;
        [| Q.point Q.Cost_variance fig2_scenario ~n:4 ~r:2.;
           Q.point
             ~accuracy:(Q.Sampled { trials = 200; seed = 7 })
             Q.Mean_cost fig2_scenario ~n:3 ~r:1. |] ]
  in
  let cold = Engine.Cache.create () in
  let batched = Engine.Executor.eval_batch ~cache:cold workload in
  let scalar =
    Array.map
      (fun q -> Engine.Executor.eval ~cache:(Engine.Cache.create ()) q)
      workload
  in
  Array.iter2
    (fun (a : A.t) (b : A.t) -> assert (a.A.points = b.A.points))
    batched scalar;
  let pool2 = Exec.Pool.create 2 in
  let batched_par =
    Engine.Executor.eval_batch ~pool:pool2 ~cache:(Engine.Cache.create ())
      workload
  in
  Exec.Pool.shutdown pool2;
  Array.iter2
    (fun (a : A.t) (b : A.t) -> assert (a.A.points = b.A.points))
    batched batched_par;
  print_endline "smoke ok: batched evaluation bit-identical to scalar";
  let warm = Engine.Executor.eval_batch ~cache:cold workload in
  Array.iter2
    (fun (w : A.t) (c : A.t) ->
      assert w.A.cached;
      assert (w.A.points = c.A.points))
    warm batched;
  let s = Engine.Cache.stats cold in
  assert (s.Engine.Cache.hits = Array.length workload);
  assert (s.Engine.Cache.misses = Array.length workload);
  print_endline "smoke ok: warm cache serves the workload with zero backend evals"

let run_benchmarks () =
  section "Bechamel timings (per run, OLS estimate)";
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.4) ~stabilize:true
      ~compaction:false ()
  in
  let raw =
    Benchmark.all cfg
      Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"" [ bench_tests; parallel_pair_tests () ])
  in
  let ols =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) ols [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  let table =
    Output.Table.create
      ~columns:
        [ ("benchmark", Output.Table.Left); ("time/run", Output.Table.Right);
          ("r^2", Output.Table.Right) ]
  in
  List.iter
    (fun (name, result) ->
      let estimate =
        match Analyze.OLS.estimates result with
        | Some (e :: _) ->
            if e > 1e9 then Printf.sprintf "%.3f s" (e /. 1e9)
            else if e > 1e6 then Printf.sprintf "%.3f ms" (e /. 1e6)
            else if e > 1e3 then Printf.sprintf "%.3f us" (e /. 1e3)
            else Printf.sprintf "%.1f ns" e
        | Some [] | None -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square result with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "n/a"
      in
      Output.Table.add_row table [ name; estimate; r2 ])
    rows;
  print_string (Output.Table.to_text table)

let () =
  let args = Array.to_list Sys.argv in
  let rec jobs_of = function
    | "--jobs" :: value :: _ -> int_of_string_opt value
    | _ :: rest -> jobs_of rest
    | [] -> None
  in
  (match jobs_of args with Some jobs -> Exec.Pool.set_jobs jobs | None -> ());
  let rec json_of = function
    | "--json" :: next :: _ when String.length next > 0 && next.[0] <> '-' ->
        Some next
    | "--json" :: _ -> Some "BENCH_parallel.json"
    | _ :: rest -> json_of rest
    | [] -> None
  in
  if List.mem "--smoke" args then smoke ()
  else
    match json_of args with
    | Some path ->
        write_parallel_json path;
        write_kernel_json "BENCH_kernel.json";
        write_batch_json "BENCH_batch.json"
    | None ->
        let skip_timing = List.mem "--no-timing" args in
        let skip_repro = List.mem "--no-repro" args in
        if not skip_repro then reproduce_all ();
        if not skip_timing then run_benchmarks ()
