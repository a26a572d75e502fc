module Sf = Numerics.Safe_float

let check_float = Alcotest.(check (float 1e-12))

let test_approx_eq_basic () =
  Alcotest.(check bool) "equal values" true (Sf.approx_eq 1. 1.);
  Alcotest.(check bool) "close values" true (Sf.approx_eq 1. (1. +. 1e-10));
  Alcotest.(check bool) "tolerance scales" true (Sf.approx_eq 1e12 (1e12 +. 1.));
  Alcotest.(check bool) "far values" false (Sf.approx_eq 1. 2.);
  Alcotest.(check bool) "just past 1e-9" false (Sf.approx_eq 1. (1. +. 2e-9));
  Alcotest.(check bool) "no absolute tolerance" false (Sf.approx_eq 0. 1e-300);
  Alcotest.(check bool) "zero vs zero" true (Sf.approx_eq 0. 0.)

let test_approx_eq_special () =
  Alcotest.(check bool) "nan never equal" false (Sf.approx_eq Float.nan Float.nan);
  Alcotest.(check bool) "nan vs number" false (Sf.approx_eq Float.nan 1.);
  Alcotest.(check bool) "inf equals inf" true (Sf.approx_eq infinity infinity);
  Alcotest.(check bool) "inf vs -inf" false (Sf.approx_eq infinity neg_infinity)

let test_clamp () =
  check_float "inside" 0.5 (Sf.clamp ~lo:0. ~hi:1. 0.5);
  check_float "below" 0. (Sf.clamp ~lo:0. ~hi:1. (-3.));
  check_float "above" 1. (Sf.clamp ~lo:0. ~hi:1. 7.);
  Alcotest.check_raises "bad bounds" (Invalid_argument "Safe_float.clamp: lo > hi")
    (fun () -> ignore (Sf.clamp ~lo:1. ~hi:0. 0.5))

let test_clamp_probability () =
  check_float "negative rounds to 0" 0. (Sf.clamp_probability (-1e-18));
  check_float "overshoot rounds to 1" 1. (Sf.clamp_probability (1. +. 1e-12))

let test_sanctioned_bit_identical () =
  (* log / exp / div are re-declared Stdlib primitives: same bits,
     NaN and infinities included *)
  let bits = Int64.bits_of_float in
  let same name expected got =
    Alcotest.(check int64) name (bits expected) (bits got)
  in
  let xs = [ 0.; 1e-300; 0.5; 1.; 2.; 1e35; infinity; Float.nan ] in
  List.iter
    (fun x ->
      same "log" (Stdlib.log x) (Sf.log x);
      same "exp" (Stdlib.exp (-.x)) (Sf.exp (-.x));
      List.iter
        (fun y -> same "div" (x /. y) (Sf.div x y))
        xs)
    xs

let test_sum_compensated () =
  (* classic cancellation case: 1 + 1e16 - 1e16 *)
  check_float "neumaier survives cancellation" 2.
    (Sf.sum [| 1.; 1e16; 1.; -1e16 |]);
  check_float "empty sum" 0. (Sf.sum [||]);
  check_float "list version" 2. (Sf.sum_list [ 1.; 1e16; 1.; -1e16 ])

let test_sum_by () =
  (* the same compensated sum as mapping first, bit for bit *)
  let rng = Numerics.Rng.create 3 in
  let xs =
    Array.init 1_000 (fun i ->
        Numerics.Rng.float rng *. (10. ** float_of_int ((i mod 40) - 20)))
  in
  List.iter
    (fun f ->
      Alcotest.(check int64) "sum_by f = sum (map f)"
        (Int64.bits_of_float (Sf.sum (Array.map f xs)))
        (Int64.bits_of_float (Sf.sum_by f xs)))
    [ Fun.id; (fun x -> (x -. 0.5) ** 2.); (fun x -> -.x *. 1e16) ];
  check_float "empty" 0. (Sf.sum_by Fun.id [||])

let test_mean () =
  check_float "mean" 2. (Sf.mean [| 1.; 2.; 3. |]);
  Alcotest.check_raises "empty mean"
    (Invalid_argument "Safe_float.mean: empty array") (fun () ->
      ignore (Sf.mean [||]))

let test_predicates () =
  Alcotest.(check bool) "0.5 is probability" true (Sf.is_probability 0.5);
  Alcotest.(check bool) "1 is probability" true (Sf.is_probability 1.);
  Alcotest.(check bool) "1.1 is not" false (Sf.is_probability 1.1);
  Alcotest.(check bool) "nan is not" false (Sf.is_probability Float.nan)

let prop_sum_permutation_invariant =
  QCheck.Test.make ~name:"compensated sum is permutation-invariant" ~count:200
    QCheck.(list_of_size (Gen.int_range 2 40) (float_range (-1e6) 1e6))
    (fun xs ->
      let a = Sf.sum (Array.of_list xs) in
      let b = Sf.sum (Array.of_list (List.rev xs)) in
      Oracle.approx_eq ~rtol:1e-12 ~atol:1e-9 a b)

let prop_clamp_idempotent =
  QCheck.Test.make ~name:"clamp is idempotent" ~count:500
    QCheck.(float_range (-100.) 100.)
    (fun x ->
      let once = Sf.clamp ~lo:(-1.) ~hi:1. x in
      Sf.clamp ~lo:(-1.) ~hi:1. once = once)

let () =
  Alcotest.run "safe_float"
    [ ( "approx_eq",
        [ Alcotest.test_case "basic" `Quick test_approx_eq_basic;
          Alcotest.test_case "special values" `Quick test_approx_eq_special ] );
      ( "clamp",
        [ Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "probability" `Quick test_clamp_probability ] );
      (* Alcotest sizes its group column to the longest group name and
         truncates test names to fit; this 18-character name keeps the
         printed names of the properties below as earlier runs recorded
         them. *)
      ( "sanctioned aliases",
        [ Alcotest.test_case "bit-identical to Stdlib" `Quick
            test_sanctioned_bit_identical ] );
      ( "reductions",
        [ Alcotest.test_case "sum" `Quick test_sum_compensated;
          Alcotest.test_case "sum_by" `Quick test_sum_by;
          Alcotest.test_case "mean" `Quick test_mean ] );
      ("predicates", [ Alcotest.test_case "predicates" `Quick test_predicates ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sum_permutation_invariant; prop_clamp_idempotent ] ) ]
