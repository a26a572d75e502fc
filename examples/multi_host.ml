(* Beyond the paper's single-host model: several appliances powering on
   at once (the setting of the companion Uppaal analysis, ref [7]).
   The draft's rule that a rival's probe for one's own candidate also
   signals a conflict is what keeps simultaneous newcomers apart.

     dune exec examples/multi_host.exe
*)

let () =
  let rng = Numerics.Rng.create 11 in
  let one_way = Dist.Families.uniform ~lo:0.01 ~hi:0.1 () in
  let config =
    { (Netsim.Newcomer.drm_config ~n:3 ~r:0.5 ~probe_cost:1. ~error_cost:100.)
      with Netsim.Newcomer.immediate_abort = true }
  in

  (* A tiny 64-address pool with 32 occupied: deliberately brutal, so
     collisions are observable.  The newcomers power on 0.2 s apart. *)
  Format.printf
    "8 newcomers, 32/64 addresses taken, loss 5%%, immediate abort:@.@.";
  let result =
    Netsim.Workload.run ~pattern:(Netsim.Workload.Periodic 0.2) ~horizon:1.7
      ~loss:0.05 ~one_way ~initial:32 ~pool_size:64 ~config ~rng ()
  in
  (* address index 0 is 169.254.1.0 *)
  let dotted a = Printf.sprintf "169.254.%d.%d" (1 + (a / 256)) (a mod 256) in
  let outcomes = result.Netsim.Workload.outcomes in
  Format.printf "  all addresses unique: %b@." result.Netsim.Workload.all_unique;
  Format.printf "  collisions with existing hosts: %d@."
    result.Netsim.Workload.collisions;
  (* the longest configuration, from power-on to acceptance *)
  Format.printf "  makespan: %.2f s@.@."
    (Array.fold_left
       (fun acc (o : Netsim.Metrics.outcome) ->
         Float.max acc o.Netsim.Metrics.config_time)
       0. outcomes);
  Array.iteri
    (fun i (o : Netsim.Metrics.outcome) ->
      Format.printf "  newcomer %d -> %s  (%d probes, %d restarts, %.2f s)%s@."
        i
        (dotted o.Netsim.Metrics.address)
        o.Netsim.Metrics.probes_sent o.Netsim.Metrics.restarts
        o.Netsim.Metrics.config_time
        (if o.Netsim.Metrics.collided then "  COLLISION" else ""))
    outcomes;

  (* Sweep the number of simultaneous newcomers. *)
  Format.printf "@.Collision rate vs simultaneous newcomers (200 trials each):@.";
  let rates =
    Netsim.Workload.collision_rate_vs_newcomers ~loss:0.05 ~one_way ~occupied:32
      ~pool_size:64 ~config ~trials:200 ~counts:[ 1; 2; 4; 8; 16 ] ~rng ()
  in
  List.iter
    (fun (count, rate) ->
      Format.printf "  %2d newcomers: per-newcomer collision rate %.4f@." count rate)
    rates
