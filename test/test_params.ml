module P = Zeroconf.Params

let check_close ?(tol = 1e-12) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let test_address_space () =
  Alcotest.(check int) "65024 link-local addresses" 65024 P.address_space_size

let test_q_of_hosts () =
  check_close "paper's q" (1000. /. 65024.) (P.q_of_hosts 1000);
  check_close "empty network" 0. (P.q_of_hosts 0);
  Alcotest.check_raises "negative"
    (Invalid_argument "Params.q_of_hosts: m outside [0, 65024)") (fun () ->
      ignore (P.q_of_hosts (-1)));
  Alcotest.check_raises "full space"
    (Invalid_argument "Params.q_of_hosts: m outside [0, 65024)") (fun () ->
      ignore (P.q_of_hosts 65024))

let test_validation () =
  let delay = Dist.Families.exponential ~rate:1. () in
  Alcotest.check_raises "q = 1" (Invalid_argument "Params.v: q outside [0, 1)")
    (fun () ->
      ignore (P.v ~name:"bad" ~delay ~q:1. ~probe_cost:0. ~error_cost:0.));
  Alcotest.check_raises "negative c"
    (Invalid_argument "Params.v: probe_cost outside [0, inf)")
    (fun () ->
      ignore (P.v ~name:"bad" ~delay ~q:0.5 ~probe_cost:(-1.) ~error_cost:0.));
  Alcotest.check_raises "negative E"
    (Invalid_argument "Params.v: error_cost outside [0, inf)")
    (fun () ->
      ignore (P.v ~name:"bad" ~delay ~q:0.5 ~probe_cost:0. ~error_cost:(-1.)));
  (* NaN fails every check, and an infinite cost turns the DRM solve
     into NaN: both are rejected *)
  Alcotest.check_raises "nan q" (Invalid_argument "Params.v: q outside [0, 1)")
    (fun () ->
      ignore (P.v ~name:"bad" ~delay ~q:nan ~probe_cost:0. ~error_cost:0.));
  Alcotest.check_raises "nan c"
    (Invalid_argument "Params.v: probe_cost outside [0, inf)") (fun () ->
      ignore (P.v ~name:"bad" ~delay ~q:0.5 ~probe_cost:nan ~error_cost:0.));
  Alcotest.check_raises "infinite c"
    (Invalid_argument "Params.v: probe_cost outside [0, inf)") (fun () ->
      ignore (P.v ~name:"bad" ~delay ~q:0.5 ~probe_cost:infinity ~error_cost:0.));
  Alcotest.check_raises "nan E"
    (Invalid_argument "Params.v: error_cost outside [0, inf)") (fun () ->
      ignore (P.with_costs ~error_cost:nan P.figure2));
  Alcotest.check_raises "infinite E"
    (Invalid_argument "Params.v: error_cost outside [0, inf)") (fun () ->
      ignore (P.with_costs ~error_cost:infinity P.figure2))

let test_updates_preserve_other_fields () =
  let base = P.figure2 in
  let updated = P.with_costs ~probe_cost:9. base in
  check_close "q untouched" base.P.q updated.P.q;
  check_close "E untouched" base.P.error_cost updated.P.error_cost;
  check_close "c changed" 9. updated.P.probe_cost;
  let requeued = P.with_q base 0.5 in
  check_close "c untouched" base.P.probe_cost requeued.P.probe_cost;
  check_close "q changed" 0.5 requeued.P.q;
  let redelayed = P.with_delay base (Dist.Families.exponential ~rate:2. ()) in
  check_close "loss now zero" 0. (P.loss_probability redelayed)

let test_update_validation_still_applies () =
  Alcotest.check_raises "with_q validates" (Invalid_argument "Params.v: q outside [0, 1)")
    (fun () -> ignore (P.with_q P.figure2 1.5))

let test_presets_match_paper () =
  (* figure2: Sec. 4.3 *)
  let p = P.figure2 in
  check_close "q" (1000. /. 65024.) p.P.q;
  check_close "c" 2. p.P.probe_cost;
  check_close "E" 1e35 p.P.error_cost;
  check_close ~tol:1e-18 "loss" 1e-15 (P.loss_probability p);
  check_close "mean reply d + 1/lambda" 1.1 p.P.delay.Dist.Distribution.mean;
  (* wireless worst case: Sec. 4.5 r = 2 *)
  let w = P.wireless_worst_case in
  check_close "wireless E" 5e20 w.P.error_cost;
  check_close "wireless c" 3.5 w.P.probe_cost;
  check_close ~tol:1e-9 "wireless loss" 1e-5 (P.loss_probability w);
  (* wired worst case: Sec. 4.5 r = 0.2 *)
  let d = List.assoc "wired-worst-case" P.presets in
  check_close "wired E" 1e35 d.P.error_cost;
  check_close "wired c" 0.5 d.P.probe_cost;
  check_close "wired mean reply" 0.11 d.P.delay.Dist.Distribution.mean;
  (* realistic: Sec. 6 *)
  let r = P.realistic_ethernet in
  check_close "realistic E" 5e20 r.P.error_cost;
  check_close ~tol:1e-15 "realistic loss" 1e-12 (P.loss_probability r);
  (* the 1 ms floor is where the cdf first leaves zero *)
  let cdf = r.P.delay.Dist.Distribution.cdf in
  check_close ~tol:0. "realistic rtt: no reply by the floor" 0. (cdf 0.001);
  Alcotest.(check bool) "realistic rtt: replies just past the floor" true
    (cdf (0.001 *. (1. +. 1e-9)) > 0.)

let test_presets_list_complete () =
  Alcotest.(check (list string)) "names"
    [ "figure2"; "wireless-worst-case"; "wired-worst-case"; "realistic-ethernet" ]
    (List.map fst P.presets);
  List.iter
    (fun (name, (p : P.t)) ->
      Alcotest.(check string) "name matches key" name p.P.name)
    P.presets

let test_pp_renders () =
  let s = Format.asprintf "%a" P.pp P.figure2 in
  Alcotest.(check bool) "mentions scenario" true (String.length s > 20)

let () =
  Alcotest.run "params"
    [ ( "constants",
        [ Alcotest.test_case "address space" `Quick test_address_space;
          Alcotest.test_case "q_of_hosts" `Quick test_q_of_hosts ] );
      ( "construction",
        [ Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "updates" `Quick test_updates_preserve_other_fields;
          Alcotest.test_case "update validation" `Quick
            test_update_validation_still_applies ] );
      ( "presets",
        [ Alcotest.test_case "paper values" `Quick test_presets_match_paper;
          Alcotest.test_case "list" `Quick test_presets_list_complete;
          Alcotest.test_case "printer" `Quick test_pp_renders ] ) ]
