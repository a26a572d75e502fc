module P = Zeroconf.Probes
module Params = Zeroconf.Params

let check_close ?(tol = 1e-12) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let fig2 = Params.figure2

(* pi_n(r) and log pi_n(r) are read off a kernel cursor *)
let cursor p ~n ~r =
  let k = Zeroconf.Kernel.create ~log_twin:true p ~r in
  Zeroconf.Kernel.advance_to k ~n;
  k

let pi p ~n ~r = Zeroconf.Kernel.pi (cursor p ~n ~r)

(* the log twin log pi_n, read back through the cursor's log10 error:
   log10 E = (log q + log pi_n - log (1 - q (1 - pi_n))) / log 10 *)
let log_pi (p : Params.t) ~n ~r =
  let k = cursor p ~n ~r in
  let pi_n = Zeroconf.Kernel.pi k in
  (Zeroconf.Kernel.log10_error k *. log 10.)
  -. log p.q
  +. log (1. -. (p.q *. (1. -. pi_n)))

let test_p0_is_one () =
  check_close "p_0 = 1 by convention" 1. (P.no_answer fig2 ~i:0 ~r:2.);
  check_close "literal agrees" 1. (Oracle.no_answer_literal fig2 ~i:0 ~r:2.)

let test_below_round_trip_nothing_arrives () =
  (* r < d = 1: the reply cannot arrive within i periods when i*r < d *)
  check_close "p_1(0.5) = 1" 1. (P.no_answer fig2 ~i:1 ~r:0.5);
  check_close "p_2(0.4) = 1 (2 * 0.4 < 1)" 1. (P.no_answer fig2 ~i:2 ~r:0.4)

let test_known_value () =
  (* p_1(2) = S(2) = (1 - l) + l e^{-10 (2 - 1)} for the figure2 F_X *)
  let l = 1. -. 1e-15 in
  check_close "p_1(2)" (1e-15 +. (l *. exp (-10.))) (P.no_answer fig2 ~i:1 ~r:2.)

let test_decreasing_in_i () =
  let r = 1.5 in
  let prev = ref 2. in
  for i = 1 to 6 do
    let p = P.no_answer fig2 ~i ~r in
    Alcotest.(check bool) (Printf.sprintf "p_%d <= p_%d" i (i - 1)) true (p <= !prev);
    prev := p
  done

let test_pi_prefix_products () =
  let r = 1.3 and n = 5 in
  let k = Zeroconf.Kernel.create fig2 ~r in
  check_close "pi_0" 1. (Zeroconf.Kernel.pi k);
  for i = 1 to n do
    let prev = Zeroconf.Kernel.pi k in
    Zeroconf.Kernel.advance k;
    check_close
      (Printf.sprintf "pi_%d = pi_%d * p_%d" i (i - 1) i)
      (prev *. P.no_answer fig2 ~i ~r)
      (Zeroconf.Kernel.pi k)
  done;
  check_close "a fresh cursor agrees" (Zeroconf.Kernel.pi k) (pi fig2 ~n ~r)

let test_log_pi_consistent () =
  let r = 1.2 and n = 4 in
  check_close ~tol:1e-9 "log pi matches pi"
    (log (pi fig2 ~n ~r))
    (log_pi fig2 ~n ~r)

let test_log_pi_survives_underflow () =
  (* with 30 probes at r = 3 the plain product underflows towards 0 but
     log_pi stays informative *)
  let lp = log_pi fig2 ~n:30 ~r:3. in
  Alcotest.(check bool) "deeply negative but finite" true
    (Float.is_finite lp && lp < -100.)

let test_pi_limit () =
  check_close ~tol:1e-20 "limit is (1-l)^n" 1e-30 (Oracle.pi_limit fig2 ~n:2);
  check_close "n = 0 limit" 1. (Oracle.pi_limit fig2 ~n:0);
  (* past every reply, pi_n is the permanent-loss floor *)
  let lossy = Params.with_q (List.assoc "wireless-worst-case" Params.presets) 0.1 in
  check_close ~tol:1e-24 "pi_2 at r = 1e4 is the limit"
    (Oracle.pi_limit lossy ~n:2) (pi lossy ~n:2 ~r:1e4)

let test_guards () =
  Alcotest.check_raises "negative i"
    (Invalid_argument "Probes.no_answer: negative probe index") (fun () ->
      ignore (P.no_answer fig2 ~i:(-1) ~r:1.));
  Alcotest.check_raises "negative r"
    (Invalid_argument "Probes.no_answer: negative listening period") (fun () ->
      ignore (P.no_answer fig2 ~i:2 ~r:(-1.)))

(* The headline property: the paper's literal Eq. 1 product telescopes
   to the survival ratio.  Check across random scenarios. *)
let scenario_gen =
  QCheck.Gen.(
    let* loss = float_range 0. 0.5 in
    let* rate = float_range 0.5 20. in
    let* delay = float_range 0. 2. in
    let* q = float_range 0. 0.9 in
    return
      (Params.v ~name:"prop"
         ~delay:(Dist.Families.shifted_exponential ~mass:(1. -. loss) ~rate ~delay ())
         ~q ~probe_cost:1. ~error_cost:100.))

let prop_literal_equals_telescoped =
  QCheck.Test.make ~name:"Eq. 1 literal product = telescoped survival form"
    ~count:300
    QCheck.(triple (make scenario_gen) (int_range 1 10) (float_range 0.01 8.))
    (fun (p, i, r) ->
      Oracle.approx_eq ~rtol:1e-6 ~atol:1e-12
        (Oracle.no_answer_literal p ~i ~r)
        (P.no_answer p ~i ~r))

let prop_pi_is_probability =
  QCheck.Test.make ~name:"pi_n(r) lies in [0, 1]" ~count:300
    QCheck.(triple (make scenario_gen) (int_range 1 10) (float_range 0. 8.))
    (fun (p, n, r) -> Numerics.Safe_float.is_probability (pi p ~n ~r))

let prop_pi_decreasing_in_r =
  QCheck.Test.make ~name:"pi_n is non-increasing in r" ~count:300
    QCheck.(quad (make scenario_gen) (int_range 1 8) (float_range 0.01 4.)
              (float_range 0.01 4.))
    (fun (p, n, r1, r2) ->
      let lo = Float.min r1 r2 and hi = Float.max r1 r2 in
      pi p ~n ~r:hi <= pi p ~n ~r:lo +. 1e-12)

let prop_pi_at_zero_is_one =
  QCheck.Test.make ~name:"pi_n(0) = 1 (no time to hear a reply)" ~count:100
    QCheck.(pair (make scenario_gen) (int_range 1 10))
    (fun (p, n) -> pi p ~n ~r:0. = 1.)

let prop_pi_approaches_loss_floor =
  QCheck.Test.make ~name:"pi_n(r) -> (1-l)^n for large r" ~count:100
    QCheck.(pair (make scenario_gen) (int_range 1 5))
    (fun (p, n) ->
      let floor = Oracle.pi_limit p ~n in
      let at_large = pi p ~n ~r:1e4 in
      Oracle.approx_eq ~rtol:1e-3 ~atol:1e-15 at_large floor)

let () =
  Alcotest.run "probes"
    [ ( "point values",
        [ Alcotest.test_case "p_0 = 1" `Quick test_p0_is_one;
          Alcotest.test_case "below round trip" `Quick
            test_below_round_trip_nothing_arrives;
          Alcotest.test_case "known value" `Quick test_known_value;
          Alcotest.test_case "decreasing in i" `Quick test_decreasing_in_i ] );
      ( "prefix products",
        [ Alcotest.test_case "pi_all" `Quick test_pi_prefix_products;
          Alcotest.test_case "log pi consistent" `Quick test_log_pi_consistent;
          Alcotest.test_case "log pi underflow" `Quick test_log_pi_survives_underflow;
          Alcotest.test_case "pi limit" `Quick test_pi_limit;
          Alcotest.test_case "guards" `Quick test_guards ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_literal_equals_telescoped; prop_pi_is_probability;
            prop_pi_decreasing_in_r; prop_pi_at_zero_is_one;
            prop_pi_approaches_loss_floor ] ) ]
