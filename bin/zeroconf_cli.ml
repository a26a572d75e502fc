(* Command-line interface to the zeroconf cost model: evaluate, optimize,
   calibrate, and simulate.  `zeroconf_cli --help` lists the commands. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Scenario construction from flags                                    *)

(* A preset and the flags that override its fields, in the groups a
   command may read: the permanent loss, the reply delay (rate and round
   trip), the occupancy and the costs.  Each command takes only the
   groups it reads, so no flag it accepts is ignored. *)
let preset =
  let doc =
    "Named scenario: figure2, wireless-worst-case, wired-worst-case, or \
     realistic-ethernet.  Individual flags below override its fields."
  in
  Arg.(value & opt string "figure2"
       & info [ "scenario"; "preset" ] ~docv:"NAME" ~doc)

let loss =
  Arg.(value & opt (some Cli_common.probability) None
       & info [ "loss" ] ~docv:"P" ~doc:"Permanent packet-loss probability 1-l.")

(* long names deliberately avoid the 'r' prefix so that --r stays an
   unambiguous abbreviation of --r-period in every subcommand *)
let reply =
  let rate =
    Arg.(value & opt (some Cli_common.rate) None
         & info [ "lambda" ] ~docv:"LAMBDA" ~doc:"Reply rate lambda (mean reply d + 1/lambda).")
  in
  let rtt =
    Arg.(value & opt (some Cli_common.duration) None
         & info [ "delay" ] ~docv:"D" ~doc:"Round-trip delay d in seconds.")
  in
  Term.(const (fun rate rtt -> (rate, rtt)) $ rate $ rtt)

let hosts =
  Arg.(value & opt (some Cli_common.hosts) None
       & info [ "hosts" ] ~docv:"M" ~doc:"Number of occupied addresses (sets q = m/65024).")

let costs =
  let probe_cost =
    Arg.(value & opt (some Cli_common.duration) None
         & info [ "probe-cost"; "c" ] ~docv:"C" ~doc:"Postage per ARP probe.")
  in
  let error_cost =
    Arg.(value & opt (some Cli_common.duration) None
         & info [ "error-cost"; "E" ] ~docv:"E" ~doc:"Cost of an accepted address collision.")
  in
  Term.(const (fun c e -> (c, e)) $ probe_cost $ error_cost)

let build preset loss (rate, rtt) hosts (probe_cost, error_cost) =
  match List.assoc_opt preset Zeroconf.Params.presets with
  | None ->
      `Error
        (false,
         Printf.sprintf "unknown scenario %s (try %s)" preset
           (String.concat ", " (List.map fst Zeroconf.Params.presets)))
  | Some base ->
      (* the scenario constructors check the overrides together *)
      Cli_common.validated @@ fun () ->
      let p =
        match hosts with
        | Some m -> Zeroconf.Params.with_q base (Zeroconf.Params.q_of_hosts m)
        | None -> base
      in
      let p = Zeroconf.Params.with_costs ?probe_cost ?error_cost p in
      (match (loss, rate, rtt) with
      | None, None, None -> p
      | _ ->
          (* rebuild the shifted-exponential F_X around overrides,
             defaulting unspecified pieces to the figure2 values *)
          let loss =
            Option.value ~default:(Zeroconf.Params.loss_probability p) loss
          in
          let rate = Option.value ~default:10. rate in
          let rtt = Option.value ~default:1. rtt in
          Zeroconf.Params.with_delay p
            (Dist.Families.shifted_exponential ~mass:(1. -. loss) ~rate
               ~delay:rtt ()))

(* the preset with the override groups given; a group left out keeps
   the preset's fields *)
let scenario ?(loss = Term.const None) ?(reply = Term.const (None, None))
    ?(hosts = Term.const None) ?(costs = Term.const (None, None)) () =
  Term.(ret (const build $ preset $ loss $ reply $ hosts $ costs))

let scenario_term = scenario ~loss ~reply ~hosts ~costs ()

let n_term =
  Arg.(value & opt Cli_common.probe_count 4
       & info [ "n"; "n-probes" ] ~docv:"N" ~doc:"Number of ARP probes.")

let r_term =
  Arg.(value & opt Cli_common.duration 2.
       & info [ "r"; "r-period" ] ~docv:"R" ~doc:"Listening period in seconds.")

(* Configured hosts and the address pool, with the blacklist and rate
   limit of the Sec. 3.1 refinements, checked together by the library's
   refinement check before anything prints. *)
let refinement_term ?(blacklist = Term.const false)
    ?(rate_limit = Term.const None) hosts pool =
  let check blacklist rate_limit occupied pool =
    Cli_common.validated @@ fun () ->
    let r = { Zeroconf.Attempts.blacklist; rate_limit; occupied; pool } in
    Zeroconf.Attempts.validate_refinement r;
    r
  in
  Term.(ret (const check $ blacklist $ rate_limit $ hosts $ pool))

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)

(* Eqs. 3 and 4 at n for every r of [rs], through the engine, which
   refuses a point as a [query] of it would *)
let at_n quantities p ~n rs = Engine.Executor.n_sweeps quantities p ~lo:n ~hi:n rs
let c_and_e = Engine.Query.[| Mean_cost; Error_probability |]

(* the cost std dev also needs a finite DRM variance *)
let cost_cmd =
  let run p n r =
    let checked () =
      let eqs = at_n Engine.Query.[| Mean_cost; Error_probability; Log10_error |] p ~n [| r |] in
      let drm = Zeroconf.Drm.build p ~n ~r in
      (* the std dev from the rescaled variance solve: finite where the
         variance itself overflows, the plain sqrt where it does not *)
      let v, s =
        Dtmc.Absorbing.scaled_variance_total_reward drm.Zeroconf.Drm.reward
          ~from:drm.Zeroconf.Drm.start
      in
      let std_dev = sqrt v *. s in
      if not (Float.is_finite std_dev) then
        invalid_arg
          (Printf.sprintf "cost: cost std dev at n = %d, r = %g is not finite"
             n r);
      (eqs, drm, std_dev)
    in
    match Cli_common.validated checked with
    | `Error _ as e -> e
    | `Ok (eqs, drm, std_dev) ->
        Format.printf "%a@." Zeroconf.Params.pp p;
        Format.printf "C(%d, %g)      = %.6g   (Eq. 3)@." n r eqs.(0);
        Format.printf "matrix solve  = %.6g   (Sec. 4.1 DRM)@." (Zeroconf.Drm.mean_cost drm);
        Format.printf "cost std dev  = %.6g@." std_dev;
        Format.printf "E(%d, %g)      = %.6g   (Eq. 4)@." n r eqs.(1);
        Format.printf "log10 E       = %.3f@." eqs.(2);
        Format.printf "expected steps in DRM = %.4g@." (Zeroconf.Drm.expected_steps drm);
        `Ok ()
  in
  Cmd.v (Cmd.info "cost" ~doc:"Evaluate mean cost and error probability at (n, r).")
    Term.(ret (const run $ scenario_term $ n_term $ r_term))

let optimal_r_cmd =
  let run p n =
    Cli_common.validated @@ fun () ->
    let r = (Zeroconf.Optimize.optimal_r p ~n).Numerics.Minimize.x in
    let v = at_n c_and_e p ~n [| r |] in
    Format.printf "r_opt(%d) = %.6g  with C = %.6g, error prob = %.3g@." n r v.(0) v.(1)
  in
  Cmd.v (Cmd.info "optimal-r" ~doc:"Best listening period for a fixed probe count.")
    Term.(ret (const run $ scenario_term $ n_term))

let optimal_n_cmd =
  let run p r =
    Cli_common.validated @@ fun () ->
    let n, _ = Zeroconf.Optimize.optimal_n p ~r in
    let v = at_n c_and_e p ~n [| r |] in
    Format.printf "N(%g) = %d  with C = %.6g, error prob = %.3g@." r n v.(0) v.(1)
  in
  Cmd.v (Cmd.info "optimal-n" ~doc:"Best probe count for a fixed listening period.")
    Term.(ret (const run $ scenario_term $ r_term))

let assess_cmd =
  let draft_n =
    Arg.(value & opt Cli_common.probe_count 4
         & info [ "draft-n" ] ~doc:"Draft probe count to compare against.")
  in
  let draft_r =
    Arg.(value & opt Cli_common.duration 2.
         & info [ "draft-r" ] ~doc:"Draft listening period to compare against.")
  in
  (* a scenario whose optimum scan has no stop is refused, and so is a
     draft point a mean-cost query refuses *)
  let run p draft_n draft_r =
    Cli_common.validated (fun () ->
        Format.printf "%a@." Zeroconf.Assessment.pp
          (Engine.Report.assessment ~draft_n ~draft_r p))
  in
  Cmd.v
    (Cmd.info "assess"
       ~doc:"Global optimum vs the Internet-draft parameters (Sec. 6).")
    Term.(ret (const run $ scenario_term $ draft_n $ draft_r))

let nu_cmd =
  let run p =
    Format.printf "nu = %d  (minimal useful probe count, Sec. 4.4)@."
      (Zeroconf.Optimize.min_useful_probes p)
  in
  Cmd.v (Cmd.info "nu" ~doc:"Minimal useful probe count.")
    Term.(const run $ scenario_term)

let calibrate_cmd =
  let run p n r =
    (* r = 0, or a scenario with no stationary point, has no answer *)
    match Zeroconf.Calibrate.run p ~n ~r with
    | exception (Failure msg | Invalid_argument msg) -> `Error (false, msg)
    | res ->
        Format.printf
          "calibrated for (n = %d, r = %g):@.  E = %.4g@.  c = %.4g@.  global \
           optimum under these costs: n = %d, r = %.4g@.  |r_opt - r| = %.2g@."
          n r res.Zeroconf.Calibrate.error_cost
          res.Zeroconf.Calibrate.probe_cost
          res.Zeroconf.Calibrate.optimum.Zeroconf.Optimize.n
          res.Zeroconf.Calibrate.optimum.Zeroconf.Optimize.r
          res.Zeroconf.Calibrate.r_residual;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:"Solve the Sec. 4.5 inverse problem: costs making (n, r) optimal.")
    Term.(ret (const run $ scenario ~loss ~reply ~hosts () $ n_term $ r_term))

let simulate_cmd =
  let trials =
    Arg.(value & opt Cli_common.trials 10_000
         & info [ "trials" ] ~doc:"Number of configuration runs.")
  in
  let seed = Arg.(value & opt Cli_common.seed 1 & info [ "seed" ] ~doc:"RNG seed.") in
  let detailed =
    Arg.(value & flag
         & info [ "detailed" ]
             ~doc:"Packet-level simulation instead of the aggregate F_X sampler.")
  in
  let hosts_small =
    Arg.(value & opt Cli_common.count 100
         & info [ "sim-hosts" ]
             ~doc:"Configured hosts in the simulated network (detailed mode cost grows with this).")
  in
  let pool =
    Arg.(value & opt Cli_common.pool_size 1024
         & info [ "pool" ] ~doc:"Address-pool size for the simulation.")
  in
  let run p n r trials seed detailed
      { Zeroconf.Attempts.occupied = hosts; pool; _ } =
    (* the model at the simulated occupancy, read first: a trial's cost
       sums attempts of at most n (r + c) + E each, the engine's bound *)
    let q_sim = float_of_int hosts /. float_of_int pool in
    match
      Cli_common.validated (fun () ->
          at_n c_and_e (Zeroconf.Params.with_q p q_sim) ~n [| r |])
    with
    | `Error _ as e -> e
    | `Ok model ->
        let rng = Numerics.Rng.create seed in
        let config =
          Netsim.Newcomer.drm_config ~n ~r ~probe_cost:p.Zeroconf.Params.probe_cost
            ~error_cost:p.Zeroconf.Params.error_cost
        in
        let sample =
          if detailed then
            (* instant, lossless legs: each responder replies after one
               draw from the scenario's F_X, and its defect is a reply
               that never comes *)
            Netsim.Scenario.run_detailed ~loss:0.
              ~one_way:(Dist.Families.deterministic ~delay:0. ())
              ~processing:p.Zeroconf.Params.delay ~occupied:hosts
              ~pool_size:pool ~config ~trials ~rng ()
          else
            Netsim.Scenario.run_aggregate ~delay:p.Zeroconf.Params.delay
              ~occupied:hosts ~pool_size:pool ~config ~trials ~rng ()
        in
        let agg = Netsim.Metrics.aggregate sample in
        Format.printf "%a@." Netsim.Metrics.pp_aggregate agg;
        Format.printf "model: C(%d, %g) = %.6g, E = %.4g (at q = %g)@." n r
          model.(0) model.(1) q_sim;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Monte-Carlo the protocol and compare to the model.")
    Term.(ret (const run $ scenario ~loss ~reply ~costs () $ n_term $ r_term
               $ trials $ seed $ detailed $ refinement_term hosts_small pool))

let curve_cmd =
  let points =
    Arg.(value & opt Cli_common.curve_points 60
         & info [ "points" ] ~doc:"Grid resolution.")
  in
  (* the grid runs from 0.01 up to --r-max *)
  let r_max =
    Arg.(value & opt Cli_common.r_max 4. & info [ "r-max" ] ~doc:"Upper r bound.")
  in
  (* the whole grid is one engine batch: costs, then log10 errors *)
  let run p n points r_max =
    let grid = Numerics.Grid.linspace 0.01 r_max points in
    Cli_common.validated @@ fun () ->
    let v = at_n Engine.Query.[| Mean_cost; Log10_error |] p ~n grid in
    let table =
      Output.Table.create
        ~columns:
          [ ("r", Output.Table.Right); ("C(n,r)", Output.Table.Right);
            ("log10 E(n,r)", Output.Table.Right) ]
    in
    Array.iteri
      (fun j r ->
        Output.Table.add_row table
          [ Printf.sprintf "%.4g" r;
            Printf.sprintf "%.6g" v.(j);
            Printf.sprintf "%.3f" v.(points + j) ])
      grid;
    print_string (Output.Table.to_text table)
  in
  Cmd.v (Cmd.info "curve" ~doc:"Tabulate C_n(r) and E(n, r) over an r grid.")
    Term.(ret (const run $ scenario_term $ n_term $ points $ r_max))

let latency_cmd =
  let print p n r =
    let dist = Zeroconf.Latency.periods p ~n ~r in
    Format.printf "configuration-time distribution at n = %d, r = %g:@." n r;
    Format.printf "  mean           = %.4f s@." (Zeroconf.Latency.mean dist);
    List.iter
      (fun q ->
        Format.printf "  %2.0f%% finish by  %.4g s@." (100. *. q)
          (Zeroconf.Latency.quantile dist q))
      [ 0.5; 0.9; 0.99; 0.999 ];
    List.iter
      (fun t ->
        Format.printf "  P(wait > %4.3gs) = %.3e@." t (Zeroconf.Latency.exceeds dist t))
      [ float_of_int n *. r; 2. *. float_of_int n *. r; 30. ]
  in
  let run p n r =
    (* past the horizon's overflow the mean would print as nan *)
    match Engine.Query.check_latency_horizon ~n ~r with
    | exception Invalid_argument msg -> `Error (false, msg)
    | () -> `Ok (print p n r)
  in
  Cmd.v
    (Cmd.info "latency"
       ~doc:"Exact distribution of the configuration time (beyond the paper's mean).")
    Term.(ret (const run $ scenario_term $ n_term $ r_term))

let refine_cmd =
  let hosts =
    Arg.(value & opt Cli_common.count 1000
         & info [ "occupied" ] ~doc:"Configured hosts m.")
  in
  let pool =
    Arg.(value & opt Cli_common.pool_size 65024
         & info [ "pool" ] ~doc:"Address-space size M.")
  in
  let run p n r { Zeroconf.Attempts.occupied; pool; _ } =
    match
      Cli_common.validated (fun () ->
          Zeroconf.Attempts.compare_refinements p ~occupied ~pool ~n ~r ())
    with
    | `Error _ as e -> e
    | `Ok rows ->
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
                Printf.sprintf "%.3e" a.Zeroconf.Attempts.error_probability;
                Printf.sprintf "%.4f" a.Zeroconf.Attempts.mean_time;
                Printf.sprintf "%.4f" a.Zeroconf.Attempts.mean_attempts ])
          rows;
        print_string (Output.Table.to_text table);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:"The Sec. 3.1 refinements the paper abstracts away: blacklisting and rate limiting.")
    Term.(ret (const run $ scenario ~loss ~reply ~costs () $ n_term $ r_term
               $ refinement_term hosts pool))

let pareto_cmd =
  let run p =
    match Cli_common.validated (fun () -> Engine.Tradeoff.front p) with
    | `Error _ as e -> e
    | `Ok front ->
        Format.printf
          "Pareto front over (mean cost, error probability): %d designs@.@."
          (List.length front);
        let table =
          Output.Table.create
            ~columns:
              [ ("n", Output.Table.Right); ("r", Output.Table.Right);
                ("cost", Output.Table.Right); ("log10 error", Output.Table.Right) ]
        in
        let step = max 1 (List.length front / 20) in
        List.iteri
          (fun i (d : Engine.Tradeoff.design) ->
            if i mod step = 0 then
              Output.Table.add_row table
                [ string_of_int d.Engine.Tradeoff.n;
                  Printf.sprintf "%.3f" d.Engine.Tradeoff.r;
                  Printf.sprintf "%.3f" d.Engine.Tradeoff.cost;
                  Printf.sprintf "%.1f" d.Engine.Tradeoff.log10_error ])
          front;
        print_string (Output.Table.to_text table);
        (match Engine.Tradeoff.knee front with
        | Some k ->
            Format.printf
              "@.knee (best compromise): n = %d, r = %.3f (cost %.3f, log10 error %.1f)@."
              k.Engine.Tradeoff.n k.Engine.Tradeoff.r k.Engine.Tradeoff.cost
              k.Engine.Tradeoff.log10_error
        | None -> ());
        `Ok ()
  in
  Cmd.v
    (Cmd.info "pareto"
       ~doc:"Cost/reliability trade-off front: the paper's central tension, quantified.")
    Term.(ret (const run $ scenario_term))

let maintenance_cmd =
  let trials =
    Arg.(value & opt Cli_common.trials 100
         & info [ "trials" ] ~doc:"Simulated collisions.")
  in
  let seed = Arg.(value & opt Cli_common.seed 1 & info [ "seed" ] ~doc:"RNG seed.") in
  let run p n r trials seed =
    let rng = Numerics.Rng.create seed in
    (* a probe schedule past the simulated horizon is refused up front;
       the event budget stays a backstop *)
    match
      Netsim.Maintenance.estimate_error_cost
        ~loss:(Zeroconf.Params.loss_probability p)
        ~one_way:(Dist.Families.exponential ~rate:20. ())
        ~occupied:100 ~pool_size:1024
        ~config:(Netsim.Newcomer.drm_config ~n ~r ~probe_cost:0. ~error_cost:0.)
        ~trials ~rng ()
    with
    | exception (Failure msg | Invalid_argument msg) -> `Error (false, msg)
    | est ->
        Format.printf "simulated %d address collisions:@." est.Netsim.Maintenance.trials;
        Format.printf "  mean disruption: %.2f s (max %.2f s)@."
          est.Netsim.Maintenance.disruption.Numerics.Stats.mean
          est.Netsim.Maintenance.disruption.Numerics.Stats.max;
        Format.printf "  mean broken connections: %.2f@." est.Netsim.Maintenance.mean_broken;
        Format.printf "  suggested error cost E ~ %.1f (on the waiting-seconds scale)@."
          est.Netsim.Maintenance.suggested_error_cost;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "maintenance"
       ~doc:"Simulate the post-collision defense protocol: an operational reading of E.")
    Term.(ret (const run $ scenario ~loss () $ n_term $ r_term $ trials $ seed))

let export_cmd =
  let format =
    Arg.(value & opt (enum [ ("prism", `Prism); ("props", `Props); ("dot", `Dot); ("tra", `Tra) ]) `Prism
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: prism (model), props (properties), dot (Graphviz), tra (explicit transitions).")
  in
  (* a model of the scenario is checked as a mean-cost query first, so
     export refuses what cost refuses *)
  let run p n r format =
    Cli_common.validated @@ fun () ->
    if format <> `Props then
      ignore (Engine.Query.point Engine.Query.Mean_cost p ~n ~r);
    match format with
    | `Prism -> print_string (Zeroconf.Export.to_prism p ~n ~r)
    | `Props -> print_string (Zeroconf.Export.prism_properties ~n)
    | `Dot -> print_string (Zeroconf.Export.to_dot p ~n ~r)
    | `Tra ->
        let drm = Zeroconf.Drm.build p ~n ~r in
        print_string (Dtmc.Export.to_tra drm.Zeroconf.Drm.chain)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Emit the DRM for PRISM/Storm or Graphviz cross-validation.")
    Term.(ret (const run $ scenario_term $ n_term $ r_term $ format))

let workload_cmd =
  let pattern =
    Arg.(value & opt (enum [ ("flash", `Flash); ("poisson", `Poisson); ("periodic", `Periodic) ]) `Flash
         & info [ "pattern" ] ~doc:"Arrival pattern: flash, poisson, or periodic.")
  in
  let count = Arg.(value & opt Cli_common.count 40 & info [ "count" ] ~doc:"Hosts in a flash crowd.") in
  let rate = Arg.(value & opt Cli_common.positive 0.1 & info [ "arrival-rate" ] ~doc:"Arrivals per second (poisson/periodic).") in
  let horizon = Arg.(value & opt Cli_common.positive 600. & info [ "horizon" ] ~doc:"Arrival window in seconds.") in
  let initial = Arg.(value & opt Cli_common.count 24 & info [ "initial" ] ~doc:"Hosts already configured.") in
  let pool = Arg.(value & opt Cli_common.pool_size 1024 & info [ "pool" ] ~doc:"Address-pool size.") in
  let seed = Arg.(value & opt Cli_common.seed 1 & info [ "seed" ] ~doc:"RNG seed.") in
  (* the configured hosts and the arrivals must fit the pool: the
     library's own check, before anything runs *)
  let arrivals =
    let check pattern count rate horizon initial pool =
      let pattern =
        match pattern with
        | `Flash -> Netsim.Workload.Flash { count; within = Float.min horizon 5. }
        | `Poisson -> Netsim.Workload.Poisson rate
        | `Periodic -> Netsim.Workload.Periodic (1. /. rate)
      in
      Cli_common.validated @@ fun () ->
      Netsim.Workload.check_capacity ~pattern ~horizon ~initial ~pool_size:pool;
      (pattern, horizon, initial, pool)
    in
    Term.(ret (const check $ pattern $ count $ rate $ horizon $ initial $ pool))
  in
  let run n r (pattern, horizon, initial, pool) seed =
    let rng = Numerics.Rng.create seed in
    let config =
      { (Netsim.Newcomer.drm_config ~n ~r ~probe_cost:0. ~error_cost:0.) with
        Netsim.Newcomer.immediate_abort = true;
        Netsim.Newcomer.avoid_failed = true }
    in
    (* a Poisson draw past its mean can still exhaust the pool, and a
       newcomer that never settles the event budget; an [n r] past
       max_float is refused before any event runs *)
    match
      Netsim.Workload.run ~pattern ~horizon ~loss:0.02
        ~one_way:(Dist.Families.uniform ~lo:0.005 ~hi:0.05 ())
        ~initial ~pool_size:pool ~config ~rng ()
    with
    | exception (Failure msg | Invalid_argument msg) -> `Error (false, msg)
    | result ->
        Format.printf
          "%d arrivals: %d collisions, unique = %b@.mean config time %.2f s; \
           last completion at %.2f s@."
          result.Netsim.Workload.arrivals result.Netsim.Workload.collisions
          result.Netsim.Workload.all_unique
          result.Netsim.Workload.mean_config_time
          result.Netsim.Workload.last_completion;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Long-horizon network life: arrival patterns through the simulator.")
    Term.(ret (const run $ n_term $ r_term $ arrivals $ seed))

let adaptive_cmd =
  let hosts =
    Arg.(value & opt Cli_common.count 200
         & info [ "occupied" ] ~doc:"Configured hosts m.")
  in
  let pool =
    Arg.(value & opt Cli_common.pool_size 256
         & info [ "pool" ] ~doc:"Address-space size M.")
  in
  let blacklist =
    Arg.(value & flag & info [ "blacklist" ] ~doc:"Never retry failed addresses.")
  in
  let rate_limit =
    Arg.(value & opt (some (pair Cli_common.count Cli_common.duration)) None
         & info [ "rate-limit" ] ~docv:"K,DELAY"
             ~doc:"Delay (seconds) before every attempt after K conflicts.")
  in
  let run p refinement =
    let s = Zeroconf.Adaptive.solve p ~refinement in
    Format.printf "best fixed choice:  n = %d, r = %.3f  (cost %.4f)@."
      s.Zeroconf.Adaptive.fixed_best.Zeroconf.Adaptive.n
      s.Zeroconf.Adaptive.fixed_best.Zeroconf.Adaptive.r
      s.Zeroconf.Adaptive.fixed_cost;
    Format.printf "adaptive schedule:  cost %.4f  (improvement %.4f)@."
      s.Zeroconf.Adaptive.expected_cost s.Zeroconf.Adaptive.improvement;
    Array.iteri
      (fun i (c : Zeroconf.Adaptive.choice) ->
        if
          i < 8
          || i = Array.length s.Zeroconf.Adaptive.per_attempt - 1
          || (i > 0 && c <> s.Zeroconf.Adaptive.per_attempt.(i - 1))
        then
          Format.printf "  attempt %-3d -> n = %d, r = %.3f@." (i + 1)
            c.Zeroconf.Adaptive.n c.Zeroconf.Adaptive.r)
      s.Zeroconf.Adaptive.per_attempt
  in
  Cmd.v
    (Cmd.info "adaptive"
       ~doc:"Optimal per-attempt (n, r) schedule via the MDP solver (beyond the paper).")
    Term.(const run $ scenario ~loss ~reply ~costs ()
          $ refinement_term ~blacklist ~rate_limit hosts pool)

let fit_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"DELAYS" ~doc:"File with one measured reply delay (seconds) per line.")
  in
  let losses =
    Arg.(value & opt Cli_common.count 0
         & info [ "losses" ] ~doc:"Probes that never got a reply.")
  in
  let hosts =
    Arg.(value & opt Cli_common.hosts 1000
         & info [ "fit-hosts" ] ~doc:"Expected occupied addresses.")
  in
  (* cmdliner would read --loss as an abbreviation of --losses *)
  let no_loss =
    let refuse _ = Cli_common.fail "fit estimates the loss from --losses" in
    Arg.(value & opt (some (Cli_common.checked ~docv:"P" string refuse)) None
         & info [ "loss" ] ~docs:Manpage.s_none)
  in
  (* one delay per line, blank lines skipped; a bad line fails with its
     number, as in batch *)
  let read_delays ic =
    let delay i line =
      let text = String.trim line in
      match float_of_string_opt text with
      | _ when text = "" -> None
      | Some _ as x -> x
      | None -> failwith (Printf.sprintf "line %d: %s is not a number" (i + 1) text)
    in
    match List.filter_map Fun.id (List.mapi delay (In_channel.input_lines ic)) with
    | [] -> failwith "no delays in the file"
    | delays -> Array.of_list delays
  in
  let run p _ file losses hosts =
    (* the fit refuses negative or infinite delays, and losses that
       leave no reply mass; the optimum, a scenario whose scan has no
       stop.  All of it runs before anything prints. *)
    match
      let samples = In_channel.with_open_text file read_delays in
      let fit = Dist.Fit.shifted_exponential_mle ~losses samples in
      let fitted = Dist.Fit.to_distribution fit in
      let q = Zeroconf.Params.q_of_hosts hosts
      and probe_cost = p.Zeroconf.Params.probe_cost
      and error_cost = p.Zeroconf.Params.error_cost in
      let scenario =
        Zeroconf.Params.v ~name:"fitted" ~delay:fitted ~q ~probe_cost ~error_cost
      in
      (* how stable is the advice under measurement noise? *)
      let boot =
        Zeroconf.Uncertainty.bootstrap ~rounds:100 ~losses
          ~rng:(Numerics.Rng.create 1) ~delays:samples ~q ~probe_cost
          ~error_cost ()
      in
      ( samples,
        fit,
        Dist.Fit.assess ~losses fitted samples,
        Zeroconf.Optimize.global_optimum scenario,
        boot )
    with
    | exception (Failure msg | Invalid_argument msg | Sys_error msg) ->
        `Error (false, msg)
    | samples, fit, q, o, boot ->
        Format.printf
          "fitted F_X: shifted exponential with d = %.4g s, lambda = %.4g, loss = %.3g@."
          fit.Dist.Fit.delay fit.Dist.Fit.rate fit.Dist.Fit.loss;
        Format.printf "fit quality: KS distance %.4f over %d samples@.@."
          q.Dist.Fit.ks_statistic (Array.length samples);
        Format.printf
          "recommended parameters for the measured network:@.\
          \  n = %d, r = %.4f  (cost %.4g, error probability %.3g)@.@."
          o.Zeroconf.Optimize.n o.Zeroconf.Optimize.r o.Zeroconf.Optimize.cost
          o.Zeroconf.Optimize.error_prob;
        Format.printf "%a@." Zeroconf.Uncertainty.pp boot;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "fit"
       ~doc:"Fit F_X to measured reply delays and recommend (n, r) — the Sec. 3.2 workflow.")
    Term.(ret (const run $ scenario ~costs () $ no_loss $ file $ losses $ hosts))

let check_cmd =
  let formula_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FORMULA"
             ~doc:"PCTL formula over the DRM's state labels (start, 1st..nth, \
                   error, ok), e.g. 'P<1e-40 [ F error ]'.")
  in
  let run p n r text =
    let drm = Zeroconf.Drm.build p ~n ~r in
    let chain = drm.Zeroconf.Drm.chain in
    let labels = Dtmc.Pctl.label_of_state chain in
    match Dtmc.Pctl_parser.formula text with
    | formula ->
        let verdict =
          Dtmc.Pctl.holds chain labels ~from:drm.Zeroconf.Drm.start formula
        in
        Format.printf "%s@.  |= %s@." (if verdict then "TRUE" else "FALSE") text;
        `Ok ()
    | exception Dtmc.Pctl_parser.Parse_error msg -> (
        (* maybe it is a bare path formula: answer the P=? query *)
        match Dtmc.Pctl_parser.path text with
        | path ->
            Format.printf "P=? [ %s ] = %.6g@." text
              (Dtmc.Pctl.path_probability chain labels
                 ~from:drm.Zeroconf.Drm.start path);
            `Ok ()
        | exception Dtmc.Pctl_parser.Parse_error _ ->
            `Error (false, "parse error: " ^ msg))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Model-check a PCTL formula on the DRM (or compute P=? for a bare path).")
    Term.(ret (const run $ scenario_term $ n_term $ r_term $ formula_arg))

let report_cmd =
  let draft_n =
    Arg.(value & opt Cli_common.probe_count 4
         & info [ "draft-n" ] ~doc:"Draft probe count.")
  in
  let draft_r =
    Arg.(value & opt Cli_common.duration 2.
         & info [ "draft-r" ] ~doc:"Draft listening period.")
  in
  let run p draft_n draft_r =
    Cli_common.validated (fun () ->
        print_string (Engine.Report.markdown ~draft_n ~draft_r p))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"One-page Markdown design report for a scenario (optimum, frontier, sensitivities).")
    Term.(ret (const run $ scenario_term $ draft_n $ draft_r))

(* ------------------------------------------------------------------ *)
(* Query-engine commands                                               *)

let quantity_conv name =
  match Engine.Query.quantity_of_name name with
  | Some q -> `Ok q
  | None ->
      `Error
        (false,
         Printf.sprintf
           "unknown quantity %s (try cost, error, log10-error, variance, \
            latency)"
           name)

module N = Output.Num_text

let write_g6 = N.write_general ~digits:6
let write_g10 = N.write_general ~digits:10

(* The CLI's one rendering of an answer value: %.10g for an exact
   value, the mean and its 95% interval at %.6g for a sampled one. *)
let write_interval blk pos { Engine.Answer.mean; ci_lo; ci_hi } =
  let pos = N.write_string blk (write_g6 blk pos mean) " [" in
  let pos = N.write_string blk (write_g6 blk pos ci_lo) ", " in
  N.write_char blk (write_g6 blk pos ci_hi) ']'

let write_answer_value blk pos = function
  | Engine.Answer.Scalar x -> write_g10 blk pos x
  | Engine.Answer.Interval iv -> write_interval blk pos iv

let pp_answer_value ppf v =
  let blk = N.block 64 in
  let len = write_answer_value blk 0 v in
  Format.pp_print_string ppf (Bytes.sub_string blk.N.bytes 0 len)

let print_provenance (a : Engine.Answer.t) =
  Format.printf "backend = %s, evals = %d, wall = %.3f ms@."
    a.Engine.Answer.backend a.Engine.Answer.evals
    (Int64.to_float a.Engine.Answer.wall_ns /. 1e6)

let query_cmd =
  let quantity =
    Arg.(value & opt string "cost"
         & info [ "quantity" ] ~docv:"Q"
             ~doc:"Quantity to evaluate: cost, error, log10-error, variance, \
                   or latency.")
  in
  let backend =
    Arg.(value & opt (some string) None
         & info [ "backend" ] ~docv:"B"
             ~doc:"Force a backend (analytic, kernel, dtmc, mc) instead of \
                   letting the planner choose.")
  in
  let trials =
    Arg.(value & opt Cli_common.trials Engine.Crosscheck.default_trials
         & info [ "trials" ] ~doc:"Monte-Carlo trials (mc backend).")
  in
  let seed =
    Arg.(value & opt Cli_common.seed Engine.Crosscheck.default_seed
         & info [ "seed" ] ~doc:"Monte-Carlo RNG seed (mc backend).")
  in
  (* long names avoid the 'n'/'r' prefixes so that --n / --r stay
     unambiguous abbreviations of --n-probes / --r-period here *)
  let r_sweep =
    Arg.(value
         & opt (some Cli_common.(t3 duration duration grid_size)) None
         & info [ "sweep-r" ] ~docv:"LO,HI,POINTS"
             ~doc:"Sweep r over a linear grid instead of the single point.")
  in
  let n_max =
    Arg.(value & opt (some Cli_common.grid_size) None
         & info [ "sweep-n" ] ~docv:"N"
             ~doc:"Sweep n over 1..N instead of the single point.")
  in
  let run () p n r quantity backend trials seed r_sweep n_max =
    let backend = Option.map String.lowercase_ascii backend in
    match quantity_conv quantity with
    | `Error _ as e -> e
    | `Ok qty -> (
        let accuracy =
          if backend = Some "mc" then
            Engine.Query.Sampled { trials; seed }
          else Engine.Query.Exact
        in
        match
          let q =
            match (r_sweep, n_max) with
            | Some (lo, hi, points), _ ->
                Engine.Query.r_sweep ~accuracy qty p ~n
                  ~rs:(Numerics.Grid.linspace lo hi points)
            | None, Some n_max ->
                Engine.Query.n_sweep ~accuracy qty p
                  ~ns:(Array.init n_max (fun i -> i + 1))
                  ~r
            | None, None -> Engine.Query.point ~accuracy qty p ~n ~r
          in
          Engine.Executor.eval ?backend q
        with
        | a ->
            Format.printf "%s of %s@."
              (Engine.Query.quantity_name qty)
              p.Zeroconf.Params.name;
            Array.iteri
              (fun k (n, r) ->
                Format.printf "  n = %-4d r = %-8g %a@." n r pp_answer_value
                  (Engine.Answer.value a k))
              a.Engine.Answer.points;
            print_provenance a;
            `Ok ()
        | exception Engine.Planner.Unsupported msg -> `Error (false, msg)
        | exception Invalid_argument msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Evaluate any model quantity through the backend-agnostic query \
             engine (with provenance).")
    Term.(ret (const run $ Cli_common.jobs_term $ scenario_term $ n_term
               $ r_term $ quantity $ backend $ trials $ seed $ r_sweep $ n_max))

let crosscheck_cmd =
  let quantity =
    Arg.(value & opt (some string) None
         & info [ "quantity" ] ~docv:"Q"
             ~doc:"Single quantity to cross-check (default: cost and error).")
  in
  let trials =
    Arg.(value & opt Cli_common.trials Engine.Crosscheck.default_trials
         & info [ "trials" ] ~doc:"Monte-Carlo trials.")
  in
  let seed =
    Arg.(value & opt Cli_common.seed Engine.Crosscheck.default_seed
         & info [ "seed" ] ~doc:"Monte-Carlo RNG seed.")
  in
  let run () p n r quantity trials seed =
    let quantities =
      match quantity with
      | None -> `Ok [ Engine.Query.Mean_cost; Engine.Query.Error_probability ]
      | Some name -> (
          match quantity_conv name with
          | `Ok q -> `Ok [ q ]
          | `Error _ as e -> e)
    in
    let reports =
      match quantities with
      | `Error _ as e -> e
      | `Ok quantities ->
          (* the queries' checks, then a route's refusal as it evaluates *)
          Cli_common.validated (fun () ->
              Engine.Crosscheck.run ~trials ~seed
                (List.map (fun qty -> Engine.Query.point qty p ~n ~r) quantities))
    in
    match reports with
    | `Error _ as e -> e
    | `Ok reports ->
        List.iter
          (fun (rep : Engine.Crosscheck.report) ->
            Format.printf "crosscheck: %a@." Engine.Query.pp
              rep.Engine.Crosscheck.query;
            let table =
              Output.Table.create
                ~columns:
                  [ ("backend", Output.Table.Left);
                    ("value", Output.Table.Right);
                    ("evals", Output.Table.Right);
                    ("wall (ms)", Output.Table.Right) ]
            in
            List.iter
              (fun (a : Engine.Answer.t) ->
                Output.Table.add_row table
                  [ a.Engine.Answer.backend;
                    Format.asprintf "%a" pp_answer_value
                      (Engine.Answer.value a 0);
                    string_of_int a.Engine.Answer.evals;
                    Printf.sprintf "%.3f"
                      (Int64.to_float a.Engine.Answer.wall_ns /. 1e6) ])
              rep.Engine.Crosscheck.answers;
            print_string (Output.Table.to_text table);
            Format.printf
              "max relative divergence (analytic/kernel/dtmc) = %.3g@."
              rep.Engine.Crosscheck.max_rel_divergence;
            (match rep.Engine.Crosscheck.mc_covered with
            | Some covered ->
                Format.printf "monte carlo inside its 95%% CI: %b@." covered
            | None ->
                Format.printf
                  "monte carlo: not applicable to this quantity@.");
            Format.printf "@.")
          reports;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "crosscheck"
       ~doc:"Run one query on every capable backend and report the maximum \
             relative divergence.")
    Term.(ret (const run $ Cli_common.jobs_term $ scenario_term $ n_term
               $ r_term $ quantity $ trials $ seed))

let batch_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"QUERIES"
             ~doc:"File with one query per line ('-' reads standard input). \
                   Grammar: QUANTITY [scenario=NAME] [n=INT] [r=FLOAT] \
                   [ns=LO:HI] [rs=LO:HI:POINTS] [backend=B] [trials=T] \
                   [seed=S].  Each key may appear once; ns excludes n and \
                   rs, rs excludes r, and trials and seed need backend=mc. \
                   '#' starts a comment.")
  in
  let run () file =
    match
      if file = "-" then Batch_input.read_channel stdin
      else In_channel.with_open_text file Batch_input.read_channel
    with
    | exception (Failure msg | Sys_error msg) -> `Error (false, msg)
    | { Engine.Batch.plans = 0; _ } -> `Error (false, "no queries in the input")
    | batch -> (
        match Engine.Executor.execute batch with
        | exception Invalid_argument msg -> `Error (false, msg)
        | () ->
            Batch_output.emit stdout batch;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Evaluate a list of queries as one batch, grouped per backend \
             so shared work amortizes.")
    Term.(ret (const run $ Cli_common.jobs_term $ file))

(* ------------------------------------------------------------------ *)
(* Paper reproduction                                                  *)

let reproduce_cmd =
  Cmd.v
    (Cmd.info "reproduce"
       ~doc:"Print every paper artifact (Figs. 2-6, Secs. 4.4, 4.5 and 6) \
             and the validation and extension experiments, next to the \
             paper's own numbers.")
    Term.(const Reproduce.reproduce_all $ const ())

let () =
  let info =
    Cmd.info "zeroconf_cli" ~version:"1.0.0"
      ~doc:"Cost-optimization of the IPv4 zeroconf protocol (DSN 2003 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ cost_cmd; optimal_r_cmd; optimal_n_cmd; assess_cmd; nu_cmd;
            calibrate_cmd; simulate_cmd; curve_cmd; latency_cmd; refine_cmd;
            pareto_cmd; maintenance_cmd; export_cmd; workload_cmd; adaptive_cmd;
            report_cmd; fit_cmd; check_cmd; query_cmd; crosscheck_cmd;
            batch_cmd; reproduce_cmd ]))
