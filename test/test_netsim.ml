module Eq = Netsim.Event_queue
module Engine = Netsim.Engine
module Pool = Netsim.Address_pool
module Link = Netsim.Link

let check_close ?(tol = 1e-12) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* ---------------- event queue ---------------- *)

let test_queue_orders_by_time () =
  let q = Eq.create () in
  Eq.add q ~time:3. "c";
  Eq.add q ~time:1. "a";
  Eq.add q ~time:2. "b";
  let order = List.init 3 (fun _ -> snd (Option.get (Eq.pop q))) in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] order;
  Alcotest.(check bool) "drained" true (Eq.peek q = None)

let test_queue_fifo_on_ties () =
  let q = Eq.create () in
  List.iter (fun label -> Eq.add q ~time:1. label) [ "first"; "second"; "third" ];
  let order = List.init 3 (fun _ -> snd (Option.get (Eq.pop q))) in
  Alcotest.(check (list string)) "insertion order" [ "first"; "second"; "third" ] order

let test_queue_peek_nondestructive () =
  let q = Eq.create () in
  Eq.add q ~time:5. "x";
  Alcotest.(check (option (pair (float 0.) string))) "peek" (Some (5., "x")) (Eq.peek q);
  Alcotest.(check (option (pair (float 0.) string))) "still there" (Some (5., "x"))
    (Eq.pop q)

let test_queue_interleaved_ops () =
  let q = Eq.create () in
  Eq.add q ~time:10. 10;
  Eq.add q ~time:5. 5;
  Alcotest.(check (option (pair (float 0.) int))) "pop min" (Some (5., 5)) (Eq.pop q);
  Eq.add q ~time:1. 1;
  Alcotest.(check (option (pair (float 0.) int))) "new min" (Some (1., 1)) (Eq.pop q);
  Alcotest.(check (option (pair (float 0.) int))) "last" (Some (10., 10)) (Eq.pop q);
  Alcotest.(check (option (pair (float 0.) int))) "empty" None (Eq.pop q)

let test_queue_large_heap_sorted () =
  let q = Eq.create () in
  let rng = Numerics.Rng.create 55 in
  for i = 0 to 999 do
    Eq.add q ~time:(Numerics.Rng.float rng) i
  done;
  let previous = ref neg_infinity in
  let ok = ref true in
  for _ = 1 to 1000 do
    let time, _ = Option.get (Eq.pop q) in
    if time < !previous then ok := false;
    previous := time
  done;
  Alcotest.(check bool) "non-decreasing" true !ok

let test_queue_rejects_nan () =
  let q = Eq.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_queue.add: nan time")
    (fun () -> Eq.add q ~time:Float.nan ())

(* model-based property: any interleaving of adds and pops behaves like
   a stable sort on (time, insertion order) *)
let prop_queue_matches_reference_model =
  QCheck.Test.make ~name:"heap = stable sorted reference under random ops"
    ~count:300
    QCheck.(list (pair (float_range 0. 100.) bool))
    (fun ops ->
      let q = Eq.create () in
      (* reference: sorted association list of (time, seq) *)
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun (time, is_add) ->
          if is_add then begin
            Eq.add q ~time !seq;
            model :=
              List.merge
                (fun (t1, s1) (t2, s2) -> compare (t1, s1) (t2, s2))
                !model
                [ (time, !seq) ];
            incr seq
          end
          else
            match (Eq.pop q, !model) with
            | None, [] -> ()
            | Some (t, payload), (mt, ms) :: rest ->
                if t <> mt || payload <> ms then ok := false;
                model := rest
            | Some _, [] | None, _ :: _ -> ok := false)
        ops;
      (* drain and compare the rest *)
      List.iter
        (fun (mt, ms) ->
          match Eq.pop q with
          | Some (t, payload) when t = mt && payload = ms -> ()
          | _ -> ok := false)
        !model;
      !ok && Eq.peek q = None)

(* ---------------- engine ---------------- *)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~after:2. (fun () -> log := ("b", Engine.now e) :: !log);
  Engine.schedule e ~after:1. (fun () -> log := ("a", Engine.now e) :: !log);
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.))))
    "order and clock" [ ("a", 1.); ("b", 2.) ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~after:1. (fun () ->
      fired := 1 :: !fired;
      Engine.schedule e ~after:1. (fun () -> fired := 2 :: !fired));
  Engine.run e;
  Alcotest.(check (list int)) "nested event ran" [ 1; 2 ] (List.rev !fired);
  check_close "clock at 2" 2. (Engine.now e)

let test_engine_until_horizon () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~after:1. (fun () -> incr fired);
  Engine.schedule e ~after:10. (fun () -> incr fired);
  Engine.run ~until:5. e;
  Alcotest.(check int) "only the early event" 1 !fired;
  check_close "clock clamped to horizon" 5. (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "late event still queued" 2 !fired

(* a schedule that never ends reaches the 10M-event budget *)
let test_engine_event_budget () =
  let e = Engine.create () in
  let rec loop () = Engine.schedule e ~after:0. loop in
  Engine.schedule e ~after:0. loop;
  Alcotest.check_raises "runaway guarded" (Failure "Engine.run: event budget exceeded")
    (fun () -> Engine.run e)

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule e ~after:1. (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~after:(-1.) (fun () -> ()));
  Alcotest.check_raises "absolute past"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      Engine.schedule_at e ~time:0.5 (fun () -> ()))

(* ---------------- address pool ---------------- *)

(* the occupied addresses of a pool, in order *)
let occupied p = List.filter (Pool.is_occupied p) (List.init (Pool.size p) Fun.id)

let test_pool_claim_release () =
  let p = Pool.create ~size:16 () in
  Alcotest.(check (list int)) "empty" [] (occupied p);
  Pool.claim p 3;
  Alcotest.(check (list int)) "only 3 occupied" [ 3 ] (occupied p);
  Alcotest.check_raises "double claim"
    (Invalid_argument "Address_pool.claim: already occupied") (fun () ->
      Pool.claim p 3);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Address_pool.claim: address out of range") (fun () ->
      Pool.claim p 16)

let test_pool_default_size_is_paper () =
  Alcotest.(check int) "65024 addresses" 65024 (Pool.size (Pool.create ()))

let test_pool_random_free () =
  let p = Pool.create ~size:8 () in
  let rng = Numerics.Rng.create 1 in
  for _ = 1 to 8 do
    ignore (Pool.claim_random_free p ~rng)
  done;
  Alcotest.(check int) "filled" 8 (List.length (occupied p));
  Alcotest.check_raises "full" (Failure "Address_pool.claim_random_free: pool full")
    (fun () -> ignore (Pool.claim_random_free p ~rng))

let test_pool_candidate_uniform () =
  let p = Pool.create ~size:4 () in
  let rng = Numerics.Rng.create 2 in
  let counts = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let a = Pool.random_candidate p ~rng in
    counts.(a) <- counts.(a) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "address %d near uniform" i)
        true
        (Float.abs ((float_of_int c /. float_of_int n) -. 0.25) < 0.02))
    counts

(* ---------------- link ---------------- *)

let perfect_delay = Dist.Families.deterministic ~delay:0.1 ()

let test_link_delivers_to_others_not_sender () =
  let engine = Engine.create () in
  let rng = Numerics.Rng.create 3 in
  let link = Link.create ~engine ~rng ~loss:0. ~one_way:perfect_delay in
  let received = Array.make 3 0 in
  let ids =
    Array.init 3 (fun i -> Link.attach link (fun _ -> received.(i) <- received.(i) + 1))
  in
  Link.broadcast link ~sender:ids.(0)
    (Netsim.Packet.Arp_probe { sender = ids.(0); address = 1 });
  Engine.run engine;
  Alcotest.(check (array int)) "everyone but the sender" [| 0; 1; 1 |] received


let test_link_delay_applied () =
  let engine = Engine.create () in
  let rng = Numerics.Rng.create 4 in
  let link = Link.create ~engine ~rng ~loss:0. ~one_way:perfect_delay in
  let arrival = ref 0. in
  let _receiver = Link.attach link (fun _ -> arrival := Engine.now engine) in
  let sender = Link.attach link (fun _ -> ()) in
  Link.broadcast link ~sender (Netsim.Packet.Arp_probe { sender; address = 0 });
  Engine.run engine;
  check_close "one-way delay" 0.1 !arrival

let test_link_loss_rate () =
  let engine = Engine.create () in
  let rng = Numerics.Rng.create 5 in
  let link = Link.create ~engine ~rng ~loss:0.3 ~one_way:perfect_delay in
  let received = ref 0 in
  let _receiver = Link.attach link (fun _ -> incr received) in
  let sender = Link.attach link (fun _ -> ()) in
  let n = 20_000 in
  for _ = 1 to n do
    Link.broadcast link ~sender (Netsim.Packet.Arp_probe { sender; address = 0 })
  done;
  Engine.run engine;
  let rate = 1. -. (float_of_int !received /. float_of_int n) in
  Alcotest.(check bool) (Printf.sprintf "loss rate %.3f near 0.3" rate) true
    (Float.abs (rate -. 0.3) < 0.02)

let test_link_detach () =
  let engine = Engine.create () in
  let rng = Numerics.Rng.create 6 in
  let link = Link.create ~engine ~rng ~loss:0. ~one_way:perfect_delay in
  let received = ref 0 in
  let receiver = Link.attach link (fun _ -> incr received) in
  let sender = Link.attach link (fun _ -> ()) in
  Link.detach link receiver;
  Link.broadcast link ~sender (Netsim.Packet.Arp_probe { sender; address = 0 });
  Engine.run engine;
  Alcotest.(check int) "no delivery after detach" 0 !received

(* ---------------- host responder ---------------- *)

let test_host_replies_to_own_address_only () =
  let engine = Engine.create () in
  let rng = Numerics.Rng.create 7 in
  let link = Link.create ~engine ~rng ~loss:0. ~one_way:perfect_delay in
  let _host = Netsim.Host.create ~engine ~link ~rng ~address:5 () in
  let replies = ref [] in
  let observer = Link.attach link (fun p -> replies := p :: !replies) in
  Link.broadcast link ~sender:observer
    (Netsim.Packet.Arp_probe { sender = observer; address = 5 });
  Link.broadcast link ~sender:observer
    (Netsim.Packet.Arp_probe { sender = observer; address = 6 });
  Engine.run engine;
  Alcotest.(check int) "one reply" 1 (List.length !replies);
  match !replies with
  | [ Netsim.Packet.Arp_reply { address; _ } ] ->
      Alcotest.(check int) "defends its address" 5 address
  | _ -> Alcotest.fail "expected exactly one ARP reply"

let test_host_processing_delay () =
  let engine = Engine.create () in
  let rng = Numerics.Rng.create 8 in
  let link = Link.create ~engine ~rng ~loss:0. ~one_way:perfect_delay in
  let _host =
    Netsim.Host.create ~engine ~link ~rng
      ~processing:(Dist.Families.deterministic ~delay:0.5 ())
      ~address:5 ()
  in
  let reply_time = ref 0. in
  let observer = Link.attach link (fun _ -> reply_time := Engine.now engine) in
  Link.broadcast link ~sender:observer
    (Netsim.Packet.Arp_probe { sender = observer; address = 5 });
  Engine.run engine;
  (* probe 0.1 one way + 0.5 processing + 0.1 reply = 0.7 *)
  check_close "round trip" 0.7 !reply_time

(* ---------------- seeded runs, pinned ---------------- *)

(* Every packet-level runner's seeded output, bit for bit: an outcome
   array is pinned by the MD5 of one line per outcome with its floats
   in [%h].  A change to the draw order of any runner (which station a
   broadcast serves first, when arrival times are drawn, how
   replications split the generator) moves these values. *)

module M = Netsim.Metrics
module W = Netsim.Workload

let outcome_line (o : M.outcome) =
  Printf.sprintf "%d %b %d %d %h %h\n" o.M.address o.M.collided
    o.M.probes_sent o.M.restarts o.M.config_time o.M.cost

let fingerprint outcomes =
  Digest.to_hex
    (Digest.string (String.concat "" (Array.to_list (Array.map outcome_line outcomes))))

let hex = Printf.sprintf "%h"
let pinned_one_way = Dist.Families.uniform ~lo:0.005 ~hi:0.05 ()

let pinned_config =
  { (Netsim.Newcomer.drm_config ~n:3 ~r:0.3 ~probe_cost:1. ~error_cost:50.) with
    Netsim.Newcomer.immediate_abort = true;
    Netsim.Newcomer.avoid_failed = true;
    Netsim.Newcomer.announce = Some (2, 0.5) }

let detailed_config =
  Netsim.Newcomer.drm_config ~n:2 ~r:0.5 ~probe_cost:1. ~error_cost:100.

let processing = Dist.Families.exponential ~rate:4. ()

(* Six newcomers on one network, started at once (a flash crowd with no
   spread) and 0.2 s apart *)
let test_pinned_spaced () =
  List.iter
    (fun (pattern, horizon, digest, collisions) ->
      let r =
        W.run ~pattern ~horizon ~loss:0.1 ~one_way:pinned_one_way ~initial:8
          ~pool_size:32 ~config:pinned_config ~rng:(Numerics.Rng.create 21) ()
      in
      Alcotest.(check int) "arrivals" 6 r.W.arrivals;
      Alcotest.(check string) "outcomes" digest (fingerprint r.W.outcomes);
      Alcotest.(check int) "collisions" collisions r.W.collisions;
      Alcotest.(check bool) "unique" true r.W.all_unique)
    [ ( W.Flash { count = 6; within = 0. }, 1., "d0077e2d0783af09b5ec8b50fb728cb2",
        0 );
      (W.Periodic 0.2, 1.25, "fadbbfa5890e1d33a4f1cdd5fce802ab", 1) ]

let test_pinned_patterns () =
  List.iter
    (fun (pattern, digest, arrivals, last, mean) ->
      let r =
        W.run ~pattern ~horizon:20. ~loss:0.05 ~one_way:pinned_one_way
          ~initial:6 ~pool_size:64 ~config:pinned_config
          ~rng:(Numerics.Rng.create 22) ()
      in
      Alcotest.(check string) "outcomes" digest (fingerprint r.W.outcomes);
      Alcotest.(check int) "arrivals" arrivals r.W.arrivals;
      Alcotest.(check int) "collisions" 0 r.W.collisions;
      Alcotest.(check string) "last completion" last (hex r.W.last_completion);
      Alcotest.(check string) "mean config time" mean (hex r.W.mean_config_time))
    [ ( W.Poisson 0.5, "8c4305452f567bee99815657ff129cff", 5,
        "0x1.a988a7c22990ep+3", "0x1.d7e0adc962036p-1" );
      ( W.Flash { count = 12; within = 1. }, "8b2198b8ca6dac48b88c44adae9c1530",
        12, "0x1.e3f88bfe35ddbp+0", "0x1.ce95ee6a81e2bp-1" );
      ( W.Periodic 1.5, "bdfbb3f483a7618609671430590ee7cd", 13,
        "0x1.4666666666667p+4", "0x1.d028fc03fa5a6p-1" ) ]

let test_pinned_collision_rate () =
  let rates =
    W.collision_rate_vs_newcomers ~loss:0.3 ~one_way:pinned_one_way ~occupied:8
      ~pool_size:32 ~config:pinned_config ~trials:5 ~counts:[ 1; 2; 4 ]
      ~rng:(Numerics.Rng.create 23) ()
  in
  Alcotest.(check (list (pair int string))) "rates"
    [ (1, "0x0p+0"); (2, "0x1.999999999999ap-4"); (4, "0x0p+0") ]
    (List.map (fun (c, r) -> (c, hex r)) rates)

let test_pinned_maintenance () =
  let module Mn = Netsim.Maintenance in
  let est =
    Mn.estimate_error_cost ~background_rate:0.05 ~loss:0.1
      ~one_way:pinned_one_way ~occupied:20 ~pool_size:64
      ~config:(Netsim.Newcomer.drm_config ~n:2 ~r:0.5 ~probe_cost:0. ~error_cost:0.)
      ~trials:3 ~rng:(Numerics.Rng.create 24) ()
  in
  Alcotest.(check (list string)) "mean, max, broken, E"
    [ "0x1.445fdb76e38bbp+3"; "0x1.1be01720e0282p+4"; "0x1.5555555555555p-2";
      "0x1.422fedbb71c5ep+4" ]
    (List.map hex
       [ est.Mn.disruption.Numerics.Stats.mean;
         est.Mn.disruption.Numerics.Stats.max; est.Mn.mean_broken;
         est.Mn.suggested_error_cost ])

(* The detailed runner's sample: both columns in [%h], and the totals *)
let test_pinned_detailed () =
  let s =
    Netsim.Scenario.run_detailed ~loss:0.3 ~one_way:pinned_one_way ~processing
      ~occupied:12 ~pool_size:16 ~config:detailed_config ~trials:20
      ~rng:(Numerics.Rng.create 25) ()
  in
  let columns =
    List.init (M.length s) (fun i -> Printf.sprintf "%h %h\n" s.M.cost.(i) s.M.config_time.(i))
  in
  Alcotest.(check string) "cost and time" "6996dfd1466845ea667003b3b5e80051"
    (Digest.to_hex (Digest.string (String.concat "" columns)));
  Alcotest.(check int) "collisions" 11 s.M.collisions;
  Alcotest.(check (list string)) "probe and restart sums"
    [ "0x1.4cp+6"; "0x0p+0"; "0x1.ep+4"; "0x0p+0" ]
    (Array.to_list (Array.map hex s.M.sums))

(* ---------------- one door for occupancy ---------------- *)

let test_occupancy_refused () =
  let refused label f =
    List.iter
      (fun occupied ->
        Alcotest.check_raises
          (Printf.sprintf "%s, occupied %d" label occupied)
          (Invalid_argument "Network.create: occupied outside [0, pool size)")
          (fun () -> ignore (f occupied (Numerics.Rng.create 1))))
      [ -1; 16; 17 ]
  in
  let one_way = pinned_one_way and config = detailed_config in
  refused "Workload.run" (fun initial rng ->
      W.run ~pattern:(W.Periodic 1.) ~horizon:1. ~loss:0. ~one_way ~initial
        ~pool_size:16 ~config ~rng ());
  refused "Workload.collision_rate_vs_newcomers" (fun occupied rng ->
      W.collision_rate_vs_newcomers ~loss:0. ~one_way ~occupied ~pool_size:16
        ~config ~trials:1 ~counts:[ 1 ] ~rng ());
  refused "Maintenance.estimate_error_cost" (fun occupied rng ->
      Netsim.Maintenance.estimate_error_cost ~loss:0. ~one_way ~occupied
        ~pool_size:16 ~config ~trials:1 ~rng ());
  refused "Scenario.run_detailed" (fun occupied rng ->
      Netsim.Scenario.run_detailed ~loss:0. ~one_way ~processing ~occupied
        ~pool_size:16 ~config ~trials:1 ~rng ())

let () =
  Alcotest.run "netsim"
    [ ( "event queue",
        [ Alcotest.test_case "orders by time" `Quick test_queue_orders_by_time;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_on_ties;
          Alcotest.test_case "peek" `Quick test_queue_peek_nondestructive;
          Alcotest.test_case "interleaved" `Quick test_queue_interleaved_ops;
          Alcotest.test_case "large heap" `Quick test_queue_large_heap_sorted;
          Alcotest.test_case "rejects nan" `Quick test_queue_rejects_nan;
          QCheck_alcotest.to_alcotest prop_queue_matches_reference_model ] );
      ( "engine",
        [ Alcotest.test_case "order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "nested" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "horizon" `Quick test_engine_until_horizon;
          Alcotest.test_case "budget" `Quick test_engine_event_budget;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past ] );
      ( "address pool",
        [ Alcotest.test_case "claim/release" `Quick test_pool_claim_release;
          Alcotest.test_case "paper size" `Quick test_pool_default_size_is_paper;
          Alcotest.test_case "random free" `Quick test_pool_random_free;
          Alcotest.test_case "uniform candidates" `Quick test_pool_candidate_uniform ] );
      ( "link",
        [ Alcotest.test_case "broadcast semantics" `Quick
            test_link_delivers_to_others_not_sender;
          Alcotest.test_case "delay" `Quick test_link_delay_applied;
          Alcotest.test_case "loss rate" `Quick test_link_loss_rate;
          Alcotest.test_case "detach" `Quick test_link_detach ] );
      ( "host",
        [ Alcotest.test_case "replies to own address" `Quick
            test_host_replies_to_own_address_only;
          Alcotest.test_case "processing delay" `Quick test_host_processing_delay ] );
      ( "seeded runs",
        [ Alcotest.test_case "spaced newcomers" `Quick test_pinned_spaced;
          Alcotest.test_case "workload patterns" `Quick test_pinned_patterns;
          Alcotest.test_case "collision rate" `Quick test_pinned_collision_rate;
          Alcotest.test_case "maintenance" `Quick test_pinned_maintenance;
          Alcotest.test_case "detailed" `Quick test_pinned_detailed ] );
      ( "network",
        [ Alcotest.test_case "occupancy refused" `Quick test_occupancy_refused ] ) ]
