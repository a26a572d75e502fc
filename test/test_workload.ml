module W = Netsim.Workload

let one_way = Dist.Families.deterministic ~delay:0.01 ()

let config =
  { (Netsim.Newcomer.drm_config ~n:2 ~r:0.2 ~probe_cost:0. ~error_cost:0.) with
    Netsim.Newcomer.immediate_abort = true }

let run ?(pattern = W.Flash { count = 10; within = 1. }) ?(horizon = 10.)
    ?(loss = 0.) ?(initial = 5) ?(pool = 64) ~seed () =
  W.run ~pattern ~horizon ~loss ~one_way ~initial ~pool_size:pool ~config
    ~rng:(Numerics.Rng.create seed) ()

let test_flash_everyone_configures () =
  let r = run ~seed:1 () in
  Alcotest.(check int) "10 arrivals" 10 r.W.arrivals;
  Alcotest.(check int) "10 completions" 10 (Array.length r.W.outcomes);
  Alcotest.(check bool) "unique on a perfect link" true r.W.all_unique;
  Alcotest.(check int) "no collisions" 0 r.W.collisions

let test_flash_timing () =
  let r = run ~seed:2 () in
  (* every config takes at least n * r = 0.4 s; flash window is 1 s *)
  Alcotest.(check bool) "mean at least n*r" true (r.W.mean_config_time >= 0.4 -. 1e-9);
  Alcotest.(check bool) "last completion after the window start" true
    (r.W.last_completion >= 0.4)

let test_periodic_count () =
  let r = run ~pattern:(W.Periodic 2.) ~horizon:10. ~seed:3 () in
  Alcotest.(check int) "horizon/period arrivals" 5 r.W.arrivals

let test_poisson_rate () =
  let r = run ~pattern:(W.Poisson 2.) ~horizon:100. ~pool:512 ~seed:4 () in
  (* ~200 expected; allow wide slack *)
  Alcotest.(check bool)
    (Printf.sprintf "%d arrivals near 200" r.W.arrivals)
    true
    (r.W.arrivals > 140 && r.W.arrivals < 260)

let test_crowded_flash_still_unique_on_perfect_link () =
  (* 30 newcomers into 32 free addresses: heavy contention, but a
     loss-free link must keep every accepted address distinct *)
  let r =
    run ~pattern:(W.Flash { count = 30; within = 0.5 }) ~initial:2 ~pool:64
      ~seed:5 ()
  in
  Alcotest.(check bool) "all unique" true r.W.all_unique;
  Alcotest.(check int) "no collisions" 0 r.W.collisions

let test_lossy_flash_collides_sometimes () =
  let total = ref 0 in
  for seed = 10 to 19 do
    let r =
      run ~pattern:(W.Flash { count = 20; within = 0.2 }) ~loss:0.9 ~initial:30
        ~pool:64 ~seed ()
    in
    total := !total + r.W.collisions
  done;
  Alcotest.(check bool)
    (Printf.sprintf "collisions under heavy loss (%d)" !total)
    true (!total > 0)

let exhausted = Invalid_argument "Workload.run: address pool would be exhausted"

let test_pool_exhaustion_guard () =
  Alcotest.check_raises "100 arrivals in a pool of 64" exhausted (fun () ->
      ignore (run ~pattern:(W.Flash { count = 100; within = 1. }) ~pool:64 ~seed:6 ()))

(* 14 expected arrivals fit a pool of 16, so the front ends' capacity
   check passes; seed 2 draws 16 or more of them *)
let test_poisson_draw_overfills () =
  let pattern = W.Poisson 1.4 and horizon = 10. in
  W.check_capacity ~pattern ~horizon ~initial:0 ~pool_size:16;
  Alcotest.check_raises "the draw, not the expectation, overfills" exhausted
    (fun () -> ignore (run ~pattern ~horizon ~initial:0 ~pool:16 ~seed:2 ()))

let test_pattern_guards () =
  List.iter
    (fun pattern ->
      try
        ignore (run ~pattern ~seed:7 ());
        Alcotest.fail "accepted an invalid pattern"
      with Invalid_argument _ -> ())
    [ W.Poisson 0.; W.Periodic 0.; W.Flash { count = -1; within = 1. } ]

(* n r past max_float: refused before any event runs, where the mean
   configuration time came out as inf - inf *)
let test_listening_time_guard () =
  Alcotest.check_raises "n r = 4 * 1e308"
    (Invalid_argument "Workload: the listening time n r = 4 * 1e+308 is not finite")
    (fun () ->
      ignore
        (W.run ~pattern:(W.Flash { count = 2; within = 1. }) ~horizon:10.
           ~loss:0. ~one_way ~initial:0 ~pool_size:64
           ~config:{ config with Netsim.Newcomer.probes = 4; listen = 1e308 }
           ~rng:(Numerics.Rng.create 11) ()))

(* -- several newcomers -------------------------------------------------- *)

let spaced_one_way = Dist.Families.deterministic ~delay:0.02 ()

let spaced_config =
  Netsim.Newcomer.drm_config ~n:3 ~r:0.2 ~probe_cost:1. ~error_cost:100.

let fast_config = { spaced_config with Netsim.Newcomer.immediate_abort = true }

(* [newcomers] hosts on a network of [occupied] ones: [spacing] seconds
   apart from time [spacing] (a periodic pattern), or without it all at
   time 0 (a flash crowd with no spread) *)
let spaced ?(loss = 0.) ?(config = spaced_config) ~occupied ~pool_size
    ~newcomers ?spacing ~rng () =
  let pattern, horizon =
    match spacing with
    | Some s -> (W.Periodic s, (float_of_int newcomers +. 0.5) *. s)
    | None -> (W.Flash { count = newcomers; within = 0. }, 1.)
  in
  W.run ~pattern ~horizon ~loss ~one_way:spaced_one_way ~initial:occupied
    ~pool_size ~config ~rng ()

let test_single_newcomer_reduces_to_scenario () =
  let r =
    spaced ~occupied:4 ~pool_size:16 ~newcomers:1
      ~rng:(Numerics.Rng.create 1) ()
  in
  Alcotest.(check int) "one outcome" 1 (Array.length r.W.outcomes);
  Alcotest.(check bool) "unique trivially" true r.W.all_unique;
  Alcotest.(check int) "no collision on perfect link" 0 r.W.collisions

let test_staggered_newcomers_all_unique () =
  (* spaced arrivals on a perfect link: earlier hosts defend their new
     addresses, so everyone ends up distinct *)
  let r =
    spaced ~occupied:8 ~pool_size:32 ~newcomers:6
      ~spacing:1. ~rng:(Numerics.Rng.create 2) ()
  in
  Alcotest.(check int) "all finished" 6 (Array.length r.W.outcomes);
  Alcotest.(check bool) "all unique" true r.W.all_unique;
  Alcotest.(check int) "no collisions" 0 r.W.collisions

let test_simultaneous_newcomers_rival_probe_rule () =
  (* all start at t = 0 on a tiny pool with a perfect link: the draft's
     rival-probe rule must still keep them apart *)
  let trials = 30 in
  let rng = Numerics.Rng.create 3 in
  let all_unique = ref 0 in
  for _ = 1 to trials do
    let r =
      spaced ~occupied:2 ~pool_size:8 ~newcomers:4
        ~config:fast_config ~rng ()
    in
    if r.W.all_unique && r.W.collisions = 0 then incr all_unique
  done;
  Alcotest.(check int)
    (Printf.sprintf "%d/%d runs perfectly separated" !all_unique trials)
    trials !all_unique

let test_makespan_positive_and_bounded () =
  let r =
    spaced ~occupied:4 ~pool_size:32 ~newcomers:3
      ~spacing:0.5 ~rng:(Numerics.Rng.create 4) ()
  in
  (* each run takes at least n*r = 0.6 s *)
  let makespan =
    Array.fold_left
      (fun acc (o : Netsim.Metrics.outcome) ->
        Float.max acc o.Netsim.Metrics.config_time)
      0. r.W.outcomes
  in
  Alcotest.(check bool) "makespan at least one full run" true (makespan >= 0.6)

let test_accepted_newcomers_defend () =
  (* newcomer A grabs an address; a later newcomer probing the same
     address must be rebuffed by A.  Pool of 3 with none occupied: A
     takes one; only A can defend it against B. *)
  let r =
    spaced ~occupied:0 ~pool_size:3 ~newcomers:2
      ~spacing:2. ~rng:(Numerics.Rng.create 5) ()
  in
  Alcotest.(check bool) "B was rebuffed" true
    (r.W.outcomes.(1).Netsim.Metrics.restarts > 0);
  Alcotest.(check bool) "distinct addresses" true r.W.all_unique;
  Alcotest.(check int) "no collision" 0 r.W.collisions

let test_lossy_link_occasionally_collides () =
  (* sanity for the statistics plumbing: with heavy loss and a crowded
     pool, collisions do occur and are counted *)
  let rng = Numerics.Rng.create 6 in
  let total_collisions = ref 0 in
  for _ = 1 to 40 do
    let r =
      spaced ~loss:0.95 ~occupied:28 ~pool_size:32 ~newcomers:2
        ~rng ()
    in
    total_collisions := !total_collisions + r.W.collisions
  done;
  Alcotest.(check bool)
    (Printf.sprintf "collisions observed (%d)" !total_collisions)
    true (!total_collisions > 0)

let test_sweep_shapes () =
  let rates =
    W.collision_rate_vs_newcomers ~loss:0.1 ~one_way:spaced_one_way ~occupied:8
      ~pool_size:32 ~config:spaced_config ~trials:5 ~counts:[ 1; 2; 4 ]
      ~rng:(Numerics.Rng.create 7) ()
  in
  Alcotest.(check (list int)) "counts echoed" [ 1; 2; 4 ] (List.map fst rates);
  List.iter
    (fun (_, rate) ->
      Alcotest.(check bool) "rate is a probability" true
        (Numerics.Safe_float.is_probability rate))
    rates

let test_announcements_broadcast_after_acceptance () =
  (* deterministic mechanism check: a clean acceptance with
     announce = (2, 0.5) must broadcast exactly two gratuitous replies
     for the accepted address, half a second apart *)
  let engine = Netsim.Engine.create () in
  let rng = Numerics.Rng.create 42 in
  let link =
    Netsim.Link.create ~engine ~rng ~loss:0.
      ~one_way:(Dist.Families.deterministic ~delay:0.01 ())
  in
  let pool = Netsim.Address_pool.create ~size:8 () in
  let announcements = ref [] in
  let _observer =
    Netsim.Link.attach link (fun packet ->
        match packet with
        | Netsim.Packet.Arp_reply { address; _ } ->
            announcements := (Netsim.Engine.now engine, address) :: !announcements
        | Netsim.Packet.Arp_probe _ -> ())
  in
  let accepted = ref None in
  let _newcomer =
    Netsim.Newcomer.start ~engine ~link ~pool ~rng
      ~config:
        { (Netsim.Newcomer.drm_config ~n:2 ~r:0.2 ~probe_cost:0. ~error_cost:0.) with
          Netsim.Newcomer.announce = Some (2, 0.5) }
      ~on_done:(fun o -> accepted := Some o)
      ()
  in
  Netsim.Engine.run engine;
  match !accepted with
  | None -> Alcotest.fail "newcomer never finished"
  | Some o ->
      let ann = List.rev !announcements in
      Alcotest.(check int) "two announcements" 2 (List.length ann);
      List.iter
        (fun (_, address) ->
          Alcotest.(check int) "announce the accepted address"
            o.Netsim.Metrics.address address)
        ann;
      (match ann with
      | [ (t1, _); (t2, _) ] ->
          Alcotest.(check (float 1e-9)) "spaced by the interval" 0.5 (t2 -. t1)
      | _ -> Alcotest.fail "expected exactly two")

(* a sweep over [counts] of simultaneous newcomers *)
let sweep ~occupied ~pool_size ~counts =
  W.collision_rate_vs_newcomers ~loss:0. ~one_way:spaced_one_way ~occupied
    ~pool_size ~config:spaced_config ~trials:1 ~counts
    ~rng:(Numerics.Rng.create 8) ()

let test_spaced_guards () =
  Alcotest.check_raises "zero newcomers" (Invalid_argument "Workload.spaced: newcomers < 1")
    (fun () -> ignore (sweep ~occupied:1 ~pool_size:8 ~counts:[ 0 ]))

(* the last newcomer would find no free address: refused at once, not
   after the event budget runs out *)
let test_spaced_exhausted_pool () =
  Alcotest.check_raises "15 occupied + 2 newcomers in 16 addresses"
    (Invalid_argument "Workload.spaced: address pool would be exhausted")
    (fun () -> ignore (sweep ~occupied:15 ~pool_size:16 ~counts:[ 2 ]))

let () =
  Alcotest.run "workload"
    [ ( "patterns",
        [ Alcotest.test_case "flash completes" `Quick test_flash_everyone_configures;
          Alcotest.test_case "flash timing" `Quick test_flash_timing;
          Alcotest.test_case "periodic count" `Quick test_periodic_count;
          Alcotest.test_case "poisson rate" `Quick test_poisson_rate ] );
      ( "contention",
        [ Alcotest.test_case "crowded but perfect" `Quick
            test_crowded_flash_still_unique_on_perfect_link;
          Alcotest.test_case "lossy collides" `Quick test_lossy_flash_collides_sometimes ] );
      ( "guards",
        [ Alcotest.test_case "pool exhaustion" `Quick test_pool_exhaustion_guard;
          Alcotest.test_case "poisson draw overfills" `Quick
            test_poisson_draw_overfills;
          Alcotest.test_case "pattern validation" `Quick test_pattern_guards;
          Alcotest.test_case "listening time refused" `Quick
            test_listening_time_guard ] );
      ( "uniqueness",
        [ Alcotest.test_case "single reduces" `Quick
            test_single_newcomer_reduces_to_scenario;
          Alcotest.test_case "staggered unique" `Quick
            test_staggered_newcomers_all_unique;
          Alcotest.test_case "simultaneous rival-probe rule" `Quick
            test_simultaneous_newcomers_rival_probe_rule;
          Alcotest.test_case "accepted defend" `Quick test_accepted_newcomers_defend ] );
      ( "statistics",
        [ Alcotest.test_case "makespan" `Quick test_makespan_positive_and_bounded;
          Alcotest.test_case "lossy collides" `Quick
            test_lossy_link_occasionally_collides;
          Alcotest.test_case "announcements" `Quick
            test_announcements_broadcast_after_acceptance;
          Alcotest.test_case "sweep" `Quick test_sweep_shapes;
          Alcotest.test_case "guards" `Quick test_spaced_guards;
          Alcotest.test_case "exhausted pool refused" `Quick
            test_spaced_exhausted_pool ] ) ]
