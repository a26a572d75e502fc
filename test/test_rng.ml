module Rng = Numerics.Rng

(* A draw as wide as [int] goes: [int] at bound [max_int] takes the raw
   splitmix64 output's top 63 bits mod [max_int], rejecting only the two
   largest, so the raw stream shows through *)
let raw63 rng = Int64.of_int (Rng.int rng max_int)

(* what [raw63] makes of a raw output [x] *)
let of_raw x = Int64.rem (Int64.shift_right_logical x 1) (Int64.of_int max_int)

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (raw63 a) (raw63 b)
  done

let test_different_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if raw63 a = raw63 b then incr same
  done;
  Alcotest.(check int) "streams disagree" 0 !same

let test_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if raw63 parent = raw63 child then incr same
  done;
  Alcotest.(check int) "split streams disagree" 0 !same

let test_int_bounds () =
  let rng = Rng.create 3 in
  let ok = ref true in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    if not (v >= 0 && v < 7) then ok := false
  done;
  Alcotest.(check bool) "all in [0, 7)" true !ok;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound <= 0")
    (fun () -> ignore (Rng.int rng 0))

let test_int_covers_support () =
  let rng = Rng.create 4 in
  let seen = Array.make 10 false in
  for _ = 1 to 2_000 do
    seen.(Rng.int rng 10) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

(* Rng.int's draws, pinned: the first four and a fold of the next 100k
   from seed 2003, per bound.  The bounds 2^61 + 1 and max_int reject
   about a quarter and almost none of the raw draws.  Monte-Carlo
   streams and the benchmark's generated inputs depend on these exact
   values. *)
let test_int_pinned () =
  List.iter
    (fun (bound, first, fold) ->
      let rng = Rng.create 2003 in
      let drawn = Array.init 4 (fun _ -> Rng.int rng bound) in
      let h = ref 0 in
      for _ = 1 to 100_000 do
        h := (!h * 31) + Rng.int rng bound
      done;
      let what = Printf.sprintf "bound %d" bound in
      Alcotest.(check (array int)) (what ^ ": first draws") first drawn;
      Alcotest.(check int) (what ^ ": fold of 100k draws") fold !h)
    [ (1, [| 0; 0; 0; 0 |], 0);
      (3, [| 2; 1; 0; 0 |], -2499476103604130488);
      (65024, [| 16508; 29645; 64912; 16953 |], -327215068363129406);
      ( 1 lsl 40,
        [| 6229837436; 173012371405; 33518703504; 552070093881 |],
        705163590821311426 );
      ( (1 lsl 61) + 1,
        [| 1242305209105106555; 31489086520248268; 1603390352513749902;
           1131626715470175288 |],
        -2622964529947738054 );
      ( max_int,
        [| 3548148218318800508; 2337332095733942221; 1603390352513749905;
           3437469724683869241 |],
        -2239488871247451322 ) ]

(* [Rng.int]'s one division per draw against the two-division rejection
   test it replaced, over an independent splitmix64 from the same seed:
   200k draws per bound, including powers of two and bounds either side
   of where a rejection becomes likely *)
let test_int_one_division () =
  List.iter
    (fun bound ->
      let rng = Rng.create 2003 and state = Oracle.splitmix 2003 in
      for k = 1 to 200_000 do
        let got = Rng.int rng bound
        and want = Oracle.int_two_divisions state bound in
        if got <> want then
          Alcotest.failf "bound %d, draw %d: %d, two divisions give %d" bound k
            got want
      done)
    [ 1; 2; 3; 7; 64; 1024; 65023; 65024; 1 lsl 40; 1 lsl 61; max_int - 5;
      max_int ]

(* The float transform and split's seeding, pinned the same way from
   seed 2003: the first four values and a fold [h * 31 + x] (on int64,
   floats by their bits) of the next 100k; the raw stream by its first
   four outputs, through [raw63] (its fold is [int]'s at [max_int]
   above).  For [split], a value is the first draw of a fresh child,
   and each child is split from the same parent.  Recorded from the
   boxed-state generator, so they pin the unboxed state to the same
   stream. *)
let fold_100k next =
  let h = ref 0L in
  for _ = 1 to 100_000 do
    h := Int64.add (Int64.mul !h 31L) (next ())
  done;
  !h

let test_uint64_pinned () =
  let rng = Rng.create 2003 in
  let first = Array.init 4 (fun _ -> raw63 rng) in
  (* the raw outputs first recorded for this seed *)
  Alcotest.(check (array int64)) "first draws"
    (Array.map of_raw
       [| 7096296436637601017L; 4674664191467884442L; -6016591331827276000L;
          6874939449367738483L |])
    first

let test_float_pinned () =
  let rng = Rng.create 2003 in
  let first = Array.init 4 (fun _ -> Int64.bits_of_float (Rng.float rng)) in
  Alcotest.(check (array int64)) "first draws"
    (Array.map Int64.bits_of_float
       [| 0x1.89ec700b9a9e2p-2; 0x1.037ef94242ba2p-2; 0x1.59018c1f377b4p-1;
          0x1.7da2c4044f88ep-2 |])
    first;
  Alcotest.(check int64) "fold of 100k draws" 2870222689495181803L
    (fold_100k (fun () -> Int64.bits_of_float (Rng.float rng)))

let test_split_pinned () =
  let rng = Rng.create 2003 in
  let child () = raw63 (Rng.split rng) in
  let first = Array.init 4 (fun _ -> child ()) in
  Alcotest.(check (array int64)) "first children"
    (Array.map of_raw
       [| -155824967853351431L; 4758182910683968605L; -2697308296961481803L;
          492327893062399568L |])
    first;
  Alcotest.(check int64) "fold of 100k children" 2621864745587659060L
    (fold_100k child)

(* The state is a mutable buffer, so a child that shared it with its
   parent would move the parent's stream.  Each side is
   advanced alone and checked against an untouched replay. *)
let test_no_aliasing () =
  let draws rng k = Array.init k (fun _ -> raw63 rng) in
  (* a split advances the parent by one draw and nothing else *)
  let parent = Rng.create 37 and replay = Rng.create 37 in
  let child = Rng.split parent in
  ignore (raw63 replay);
  ignore (draws child 1_000);
  Alcotest.(check (array int64)) "child advanced, parent unmoved"
    (draws replay 8) (draws parent 8);
  (* the same child, split from a fresh parent and advanced alike *)
  let child_replay = Rng.split (Rng.create 37) in
  ignore (draws child_replay 1_000);
  ignore (draws parent 1_000);
  Alcotest.(check (array int64)) "parent advanced, child unmoved"
    (draws child_replay 8) (draws child 8)

let test_float_range () =
  let rng = Rng.create 5 in
  let ok = ref true in
  for _ = 1 to 10_000 do
    let v = Rng.float rng in
    if not (v >= 0. && v < 1.) then ok := false
  done;
  Alcotest.(check bool) "all in [0, 1)" true !ok

let test_uniform_mean () =
  let rng = Rng.create 6 in
  let n = 50_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.uniform rng ~lo:2. ~hi:4.
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "mean %.4f near 3" mean) true
    (Float.abs (mean -. 3.) < 0.02)

let test_exponential_mean () =
  let rng = Rng.create 8 in
  let n = 100_000 and rate = 4. in
  let acc = ref 0. and non_negative = ref true in
  for _ = 1 to n do
    let v = Rng.exponential rng ~rate in
    if v < 0. then non_negative := false;
    acc := !acc +. v
  done;
  Alcotest.(check bool) "non-negative" true !non_negative;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "mean %.4f near 1/4" mean) true
    (Float.abs (mean -. 0.25) < 0.01)

let test_normal_moments () =
  let rng = Rng.create 10 in
  let n = 100_000 in
  let samples = Array.init n (fun _ -> Oracle.normal rng ~mu:5. ~sigma:2.) in
  let s = Numerics.Stats.summarize samples in
  Alcotest.(check bool) "mean near 5" true
    (Float.abs (s.Numerics.Stats.mean -. 5.) < 0.05);
  Alcotest.(check bool) "std near 2" true
    (Float.abs (s.Numerics.Stats.std -. 2.) < 0.05)

let test_bool_bias () =
  let rng = Rng.create 11 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bool rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "rate %.4f near 0.3" rate) true
    (Float.abs (rate -. 0.3) < 0.02);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Rng.bool: p not in [0,1]") (fun () ->
      ignore (Rng.bool rng 1.5))

let test_choose_weighted () =
  let rng = Rng.create 12 in
  let counts = Array.make 3 0 in
  let weights = [| 1.; 2.; 7. |] in
  let n = 50_000 in
  for _ = 1 to n do
    let i = Rng.choose_weighted rng weights in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = weights.(i) /. 10. in
      let rate = float_of_int c /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "weight %d rate %.3f near %.3f" i rate expected)
        true
        (Float.abs (rate -. expected) < 0.02))
    counts;
  Alcotest.check_raises "all zero"
    (Invalid_argument "Rng.choose_weighted: zero total weight") (fun () ->
      ignore (Rng.choose_weighted rng [| 0.; 0. |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Rng.choose_weighted: negative weight") (fun () ->
      ignore (Rng.choose_weighted rng [| 1.; -1. |]))

let test_shuffle_is_permutation () =
  let rng = Rng.create 13 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted;
  Alcotest.(check bool) "actually shuffled" true (arr <> Array.init 50 Fun.id)

let () =
  Alcotest.run "rng"
    [ ( "streams",
        [ Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seeds differ" `Quick test_different_seeds_differ;
          Alcotest.test_case "split" `Quick test_split_independent;
          Alcotest.test_case "uint64 draws pinned" `Quick test_uint64_pinned;
          Alcotest.test_case "split children pinned" `Quick test_split_pinned;
          Alcotest.test_case "copy and split never alias" `Quick
            test_no_aliasing ] );
      ( "int/float",
        [ Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int coverage" `Quick test_int_covers_support;
          Alcotest.test_case "int draws pinned" `Quick test_int_pinned;
          Alcotest.test_case "int: one division = two" `Quick test_int_one_division;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "float draws pinned" `Quick test_float_pinned ] );
      ( "distributions",
        [ Alcotest.test_case "uniform mean" `Quick test_uniform_mean;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "normal moments" `Quick test_normal_moments;
          Alcotest.test_case "bernoulli" `Quick test_bool_bias;
          Alcotest.test_case "weighted choice" `Quick test_choose_weighted;
          Alcotest.test_case "shuffle" `Quick test_shuffle_is_permutation ] ) ]
