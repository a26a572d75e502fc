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

let test_engine_event_budget () =
  let e = Engine.create () in
  let rec loop () = Engine.schedule e ~after:0. loop in
  Engine.schedule e ~after:0. loop;
  Alcotest.check_raises "runaway guarded" (Failure "Engine.run: event budget exceeded")
    (fun () -> Engine.run ~max_events:1000 e)

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

let test_engine_tracer () =
  let e = Engine.create () in
  let lines = ref [] in
  Engine.set_tracer e (Some (fun t s -> lines := (t, s) :: !lines));
  Engine.schedule e ~after:1.5 (fun () -> Engine.trace e "fired %d" 42);
  Engine.run e;
  Alcotest.(check (list (pair (float 0.) string))) "traced" [ (1.5, "fired 42") ] !lines;
  Engine.set_tracer e None;
  Engine.trace e "silent %d" 1

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

let test_pool_to_string () =
  Alcotest.(check string) "first" "169.254.1.0" (Pool.to_string 0);
  Alcotest.(check string) "second octet rollover" "169.254.2.0" (Pool.to_string 256);
  Alcotest.(check string) "last" "169.254.254.255" (Pool.to_string 65023)

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

let test_host_deafness () =
  let engine = Engine.create () in
  let rng = Numerics.Rng.create 9 in
  let link = Link.create ~engine ~rng ~loss:0. ~one_way:perfect_delay in
  let _host = Netsim.Host.create ~engine ~link ~rng ~deaf_prob:1. ~address:5 () in
  let replies = ref 0 in
  let observer = Link.attach link (fun _ -> incr replies) in
  Link.broadcast link ~sender:observer
    (Netsim.Packet.Arp_probe { sender = observer; address = 5 });
  Engine.run engine;
  Alcotest.(check int) "fully deaf host never replies" 0 !replies

let test_host_defend_interval () =
  (* two probes within the window: only the first draws a defense *)
  let engine = Engine.create () in
  let rng = Numerics.Rng.create 10 in
  let link = Link.create ~engine ~rng ~loss:0. ~one_way:perfect_delay in
  let _host =
    Netsim.Host.create ~engine ~link ~rng ~defend_interval:10. ~address:5 ()
  in
  let replies = ref 0 in
  let observer = Link.attach link (fun _ -> incr replies) in
  let probe () =
    Link.broadcast link ~sender:observer
      (Netsim.Packet.Arp_probe { sender = observer; address = 5 })
  in
  Engine.schedule engine ~after:0. probe;
  Engine.schedule engine ~after:5. probe;   (* inside the window *)
  Engine.schedule engine ~after:20. probe;  (* outside: defended again *)
  Engine.run engine;
  Alcotest.(check int) "two defenses for three probes" 2 !replies

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
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
          Alcotest.test_case "tracer" `Quick test_engine_tracer ] );
      ( "address pool",
        [ Alcotest.test_case "claim/release" `Quick test_pool_claim_release;
          Alcotest.test_case "paper size" `Quick test_pool_default_size_is_paper;
          Alcotest.test_case "random free" `Quick test_pool_random_free;
          Alcotest.test_case "rendering" `Quick test_pool_to_string;
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
          Alcotest.test_case "processing delay" `Quick test_host_processing_delay;
          Alcotest.test_case "deafness" `Quick test_host_deafness;
          Alcotest.test_case "defend interval" `Quick test_host_defend_interval ] ) ]
