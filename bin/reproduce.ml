(* The paper-reproduction report behind `zeroconf_cli reproduce`: for
   every evaluation artifact of the paper (Figures 2-6, Sec. 4.4,
   Sec. 4.5, Sec. 6, plus this repo's validation and extension
   experiments), the rows/series the paper reports, next to the
   paper's own numbers where it states them.  test/cli/reproduce.expected
   pins the whole text. *)

let line () = print_endline (String.make 78 '-')

let section title =
  line ();
  Printf.printf "%s\n" title;
  line ()

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
  (* C_n(r) for n = 1 .. 8 at r = 1, 2, 4: the j-th r's at 8 j + n - 1 *)
  let costs =
    Engine.Executor.n_sweeps Engine.Query.[| Mean_cost |] fig2_scenario ~lo:1 ~hi:8
      [| 1.; 2.; 4. |]
  in
  for n = 1 to 8 do
    let opt = Zeroconf.Optimize.optimal_r fig2_scenario ~n in
    Output.Table.add_row table
      ([ string_of_int n;
         Printf.sprintf "%.4f" opt.Numerics.Minimize.x;
         Printf.sprintf "%.6g" opt.Numerics.Minimize.fx ]
      @ List.map (fun j -> Printf.sprintf "%.6g" costs.((8 * j) + n - 1)) [ 0; 1; 2 ])
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
  (* log10 E(n, rs.(j)) for n = 1 .. 8 at 8 j + n - 1 *)
  let rs = [| 0.5; 1.; 1.5; 2.; 3.; 4.; 5.; 6. |] in
  let log10_e =
    Engine.Executor.n_sweeps Engine.Query.[| Log10_error |] fig2_scenario ~lo:1 ~hi:8 rs
  and envelope r = Zeroconf.Optimize.log10_error_under_optimal_n fig2_scenario ~r in
  Array.iteri
    (fun j r ->
      let cells = List.init 8 (fun i -> Printf.sprintf "%.1f" log10_e.((8 * j) + i)) in
      let n_opt, _ = Zeroconf.Optimize.optimal_n fig2_scenario ~r in
      Output.Table.add_row table
        ((Printf.sprintf "%.2f" r :: cells)
        @ [ string_of_int n_opt; Printf.sprintf "%.1f" (envelope r) ]))
    rs;
  print_string (Output.Table.to_text table);
  (* the paper's band claim, checked on a fine grid *)
  let env_min = ref 0. and env_max = ref (-1000.) in
  Array.iter
    (fun r ->
      let v = envelope r in
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
          ("E matrix", Output.Table.Right); ("E sim 95% CI", Output.Table.Left);
          ("covered", Output.Table.Left) ]
  in
  let answer (rep : Engine.Crosscheck.report) backend =
    List.find
      (fun (a : Engine.Answer.t) -> a.Engine.Answer.backend = backend)
      rep.Engine.Crosscheck.answers
  in
  let exact fmt rep backend =
    Printf.sprintf fmt (Engine.Answer.scalar (answer rep backend) 0)
  in
  let ci fmt rep =
    match Engine.Answer.ci (answer rep "mc") 0 with
    | Some (lo, hi) -> Printf.sprintf fmt lo hi
    | None -> "-"
  in
  let covered (rep : Engine.Crosscheck.report) =
    rep.Engine.Crosscheck.mc_covered = Some true
  in
  (* two reports per point: mean cost, then error probability *)
  let rec rows = function
    | cost :: error :: rest ->
        let n, r = Engine.Query.(points cost.Engine.Crosscheck.query).(0) in
        Output.Table.add_row table
          [ string_of_int n;
            Printf.sprintf "%.2f" r;
            exact "%.4f" cost "analytic";
            exact "%.4f" cost "dtmc";
            ci "[%.4f, %.4f]" cost;
            exact "%.5f" error "analytic";
            exact "%.5f" error "dtmc";
            ci "[%.5f, %.5f]" error;
            (if covered cost && covered error then "yes" else "no") ];
        rows rest
    | _ -> ()
  in
  rows (Engine.Experiments.validation ());
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
    let s = Zeroconf.Adaptive.solve crowded ~refinement in
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
    Netsim.Workload.collision_rate_vs_newcomers ~loss:0.1
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
