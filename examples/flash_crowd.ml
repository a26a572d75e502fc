(* Power returns to a hotel floor and forty appliances reboot at once —
   the ad-hoc formation scenario from the paper's introduction, pushed
   through the packet-level simulator.  Compare the draft's parameters
   against the optimized ones from the cost model.

     dune exec examples/flash_crowd.exe
*)

let () =
  let rng = Numerics.Rng.create 31 in
  let one_way = Dist.Families.uniform ~lo:0.005 ~hi:0.05 () in
  let run label config =
    let r =
      Netsim.Workload.run
        ~pattern:(Netsim.Workload.Flash { count = 40; within = 2. })
        ~horizon:10. ~loss:0.02 ~one_way ~initial:24 ~pool_size:256 ~config
        ~rng ()
    in
    Format.printf
      "%-28s %d joined: %d collisions, unique = %b,@.%-28s mean config %.2f s, \
       all done by %.2f s@."
      label r.Netsim.Workload.arrivals r.Netsim.Workload.collisions
      r.Netsim.Workload.all_unique ""
      r.Netsim.Workload.mean_config_time r.Netsim.Workload.last_completion
  in
  Format.printf "Flash crowd: 40 devices within 2 s on a 256-address link@.@.";
  (* the draft, verbatim: n = 4, r = 2, immediate abort, a 60 s wait
     after 10 conflicts, failed addresses avoided, two announcements *)
  run "draft (n=4, r=2):"
    { (Netsim.Newcomer.drm_config ~n:4 ~r:2. ~probe_cost:0. ~error_cost:0.) with
      Netsim.Newcomer.immediate_abort = true;
      rate_limit = Some (10, 60.);
      avoid_failed = true;
      announce = Some (2, 2.) };
  (* the model's optimum for a reliable low-latency link (cf. Sec. 6) *)
  run "optimized (n=2, r=0.5):"
    { (Netsim.Newcomer.drm_config ~n:2 ~r:0.5 ~probe_cost:0. ~error_cost:0.) with
      Netsim.Newcomer.immediate_abort = true;
      Netsim.Newcomer.avoid_failed = true };
  Format.printf
    "@.Then a steady trickle (Poisson, one device per 10 s for an hour):@.@.";
  let r =
    Netsim.Workload.run ~pattern:(Netsim.Workload.Poisson 0.1) ~horizon:3600.
      ~loss:0.02 ~one_way ~initial:24 ~pool_size:4096
      ~config:
        { (Netsim.Newcomer.drm_config ~n:2 ~r:0.5 ~probe_cost:0. ~error_cost:0.) with
          Netsim.Newcomer.immediate_abort = true }
      ~rng ()
  in
  Format.printf
    "%d arrivals over the hour: %d collisions, mean config %.2f s@."
    r.Netsim.Workload.arrivals r.Netsim.Workload.collisions
    r.Netsim.Workload.mean_config_time
