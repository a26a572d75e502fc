module Axis = Output.Axis
module Svg = Output.Svg
module Table = Output.Table

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

(* ---------------- axes ---------------- *)

let test_axis_projection_linear () =
  let a = Axis.create ~lo:0. ~hi:10. () in
  check_close "lo" 0. (Axis.project a 0.);
  check_close "hi" 1. (Axis.project a 10.);
  check_close "mid" 0.5 (Axis.project a 5.);
  check_close "clamped below" 0. (Axis.project a (-5.));
  check_close "clamped above" 1. (Axis.project a 15.)

let test_axis_ticks_linear () =
  let a = Axis.create ~lo:0. ~hi:10. () in
  let ticks = Axis.ticks a in
  Alcotest.(check bool) "a few ticks" true (List.length ticks >= 4);
  List.iter
    (fun (v, _) ->
      Alcotest.(check bool) "in range" true (v >= 0. && v <= 10.))
    ticks;
  (* ticks are nice multiples *)
  List.iter
    (fun (v, _) ->
      Alcotest.(check bool) (Printf.sprintf "%g is a multiple of 2" v) true
        (Float.is_integer (v /. 2.)))
    ticks

let test_axis_of_data () =
  let a = Axis.of_data [| 1.; 5.; 3. |] in
  Alcotest.(check bool) "covers data" true (Axis.lo a <= 1. && Axis.hi a >= 5.);
  Alcotest.check_raises "empty" (Invalid_argument "Axis.of_data: empty data")
    (fun () -> ignore (Axis.of_data [||]))

let test_axis_guards () =
  Alcotest.check_raises "lo >= hi" (Invalid_argument "Axis.create: need lo < hi")
    (fun () -> ignore (Axis.create ~lo:1. ~hi:1. ()))

(* ---------------- svg ---------------- *)

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* the document [save] writes for [x], read back *)
let saved save x =
  let path = Filename.temp_file "test_output" ".svg" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> save x path; read_file path)

let svg_text = saved Svg.save

let test_svg_document_structure () =
  let s = Svg.create ~width:100 ~height:50 in
  Svg.line s ~stroke:"#000" (0., 0.) (10., 10.);
  Svg.polyline s ~stroke:"#000" [| 0.; 5.; 10. |] [| 0.; 5.; 0. |] 3;
  Svg.rect s ~fill:"red" (1., 1.) (5., 5.);
  Svg.text s ~x:2. ~y:2. "hello";
  let doc = svg_text s in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains doc needle))
    [ "<svg"; "width=\"100\""; "<line"; "<polyline"; "<rect"; "<text"; "hello";
      "</svg>" ]

let test_svg_escaping () =
  let s = Svg.create ~width:10 ~height:10 in
  Svg.text s ~x:0. ~y:0. "a<b & c>d \"q\"";
  let doc = svg_text s in
  Alcotest.(check bool) "escaped lt" true (contains doc "a&lt;b");
  Alcotest.(check bool) "escaped amp" true (contains doc "&amp;");
  Alcotest.(check bool) "escaped quote" true (contains doc "&quot;")

let test_svg_degenerate_polyline_dropped () =
  let s = Svg.create ~width:10 ~height:10 in
  Svg.polyline s ~stroke:"#000" [| 1.; 2. |] [| 1.; 2. |] 1;
  Alcotest.(check bool) "no polyline emitted" false
    (contains (svg_text s) "<polyline")

let test_svg_save_roundtrip () =
  let s = Svg.create ~width:20 ~height:20 in
  Svg.rect s (5., 5.) (10., 10.);
  Alcotest.(check string) "file matches"
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
     <svg xmlns=\"http://www.w3.org/2000/svg\" width=\"20\" height=\"20\" \
     viewBox=\"0 0 20 20\">\n\
     <rect width=\"20\" height=\"20\" fill=\"white\"/>\n\
     <rect x=\"5.00\" y=\"5.00\" width=\"10.00\" height=\"10.00\" fill=\"none\" \
     stroke=\"none\"/>\n\
     </svg>\n"
    (svg_text s)

(* ---------------- chart ---------------- *)

let test_chart_renders_series_and_legend () =
  let chart =
    { Output.Chart.title = "demo";
      x_label = "x";
      y_label = "y";
      x_axis = Axis.create ~lo:0. ~hi:10. ();
      y_axis = Axis.create ~lo:0. ~hi:10. ();
      series =
        [ Output.Chart.series ~label:"rising"
            (Array.init 11 (fun i -> (float_of_int i, float_of_int i))) ] }
  in
  let doc = saved Output.Chart.save chart in
  Alcotest.(check bool) "title present" true (contains doc "demo");
  Alcotest.(check bool) "legend present" true (contains doc "rising");
  Alcotest.(check bool) "a polyline drawn" true (contains doc "<polyline")

let test_chart_clips_out_of_range () =
  (* a series entirely above the frame must not produce a polyline *)
  let chart =
    { Output.Chart.title = "clip";
      x_label = "x";
      y_label = "y";
      x_axis = Axis.create ~lo:0. ~hi:10. ();
      y_axis = Axis.create ~lo:0. ~hi:1. ();
      series =
        [ Output.Chart.series ~label:"huge"
            (Array.init 11 (fun i -> (float_of_int i, 1e10))) ] }
  in
  let doc = saved Output.Chart.save chart in
  Alcotest.(check bool) "clipped away" false (contains doc "<polyline")

(* ---------------- ascii chart ---------------- *)

let test_ascii_plot_marks_series () =
  let out =
    Output.Ascii_chart.plot ~x_axis:(Axis.create ~lo:0. ~hi:1. ())
      ~y_axis:(Axis.create ~lo:0. ~hi:1. ()) ~title:"t"
      [ ("s1", [| (0., 0.); (1., 1.) |]); ("s2", [| (0., 1.); (1., 0.) |]) ]
  in
  Alcotest.(check bool) "title" true (contains out "t");
  Alcotest.(check bool) "legend a" true (contains out "a = s1");
  Alcotest.(check bool) "legend b" true (contains out "b = s2");
  Alcotest.(check bool) "marks drawn" true (contains out "a" && contains out "b")

let test_ascii_plot_guards () =
  Alcotest.check_raises "no finite point"
    (Invalid_argument "Ascii_chart.plot: no finite points") (fun () ->
      ignore
        (Output.Ascii_chart.plot
           ~x_axis:(Axis.create ~lo:0. ~hi:1. ())
           ~y_axis:(Axis.create ~lo:0. ~hi:1. ()) ~title:"x" []))

(* ---------------- tables ---------------- *)

let test_table_text_alignment () =
  let t =
    Table.create ~columns:[ ("name", Table.Left); ("value", Table.Right) ]
  in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let text = Table.to_text t in
  Alcotest.(check bool) "header" true (contains text "name");
  Alcotest.(check bool) "separator" true (contains text "----");
  (* right-aligned numbers end in the same column *)
  let lines = String.split_on_char '\n' text in
  let data_lines = List.filteri (fun i _ -> i >= 2) lines in
  (match data_lines with
  | a :: b :: _ ->
      Alcotest.(check int) "equal widths" (String.length a) (String.length b)
  | _ -> Alcotest.fail "missing rows");
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Table.add_row: column count mismatch") (fun () ->
      Table.add_row t [ "only one" ])

(* ---------------- csv ---------------- *)

let test_csv_quoting () =
  let path = Filename.temp_file "test_csv" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Output.Csv.write_series ~path ~x_label:"plain"
        [ ("has,comma", [| (1., 2.) |]); ("has\"quote", [| (1., 3.) |]) ];
      let contents = read_file path in
      Alcotest.(check bool) "comma quoted" true (contains contents "\"has,comma\"");
      Alcotest.(check bool) "quote doubled" true (contains contents "\"has\"\"quote\""))

let test_csv_series_join () =
  let path = Filename.temp_file "test_csv2" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Output.Csv.write_series ~path ~x_label:"r"
        [ ("f", [| (1., 10.); (2., 20.) |]); ("g", [| (1., 11.); (2., 21.) |]) ];
      let contents = read_file path in
      Alcotest.(check bool) "header" true (contains contents "r,f,g");
      Alcotest.(check bool) "row joined" true (contains contents "2,20,21"))

let test_csv_series_grid_mismatch () =
  Alcotest.check_raises "mismatched grids"
    (Invalid_argument "Csv.write_series: mismatched grids") (fun () ->
      Output.Csv.write_series ~path:"/dev/null" ~x_label:"r"
        [ ("f", [| (1., 10.) |]); ("g", [| (2., 11.) |]) ])

(* ---------------- heatmap ---------------- *)

let sample_heatmap =
  { Output.Heatmap.title = "hm";
    x_label = "x";
    y_label = "y";
    x_ticks = [| "a"; "b"; "c" |];
    y_ticks = [| "r1"; "r2" |];
    values = [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] }

let test_heatmap_structure () =
  let doc = saved Output.Heatmap.save sample_heatmap in
  Alcotest.(check bool) "title" true (contains doc "hm");
  Alcotest.(check bool) "legend min" true (contains doc "min 1");
  Alcotest.(check bool) "legend max" true (contains doc "max 6");
  Alcotest.(check bool) "tick label" true (contains doc "r2");
  (* 6 cells + 2 legend swatches + background *)
  let rects =
    List.length (String.split_on_char '\n' doc)
    |> fun _ ->
    let count = ref 0 in
    String.iteri
      (fun i c ->
        if c = '<' && i + 5 <= String.length doc && String.sub doc i 5 = "<rect"
        then incr count)
      doc;
    !count
  in
  Alcotest.(check int) "rect count" 9 rects

let test_heatmap_nonfinite_cells_grey () =
  let hm =
    { sample_heatmap with
      Output.Heatmap.values = [| [| 1.; nan; 3. |]; [| 4.; 5.; infinity |] |] }
  in
  let doc = saved Output.Heatmap.save hm in
  Alcotest.(check bool) "grey cell present" true (contains doc "#bbbbbb")

(* each refusal names the function a caller can call *)
let test_heatmap_validation () =
  List.iter
    (fun (msg, hm) ->
      Alcotest.check_raises msg (Invalid_argument ("Heatmap.save: " ^ msg))
        (fun () -> ignore (saved Output.Heatmap.save hm)))
    [ ("no rows", { sample_heatmap with Output.Heatmap.values = [||] });
      ("empty rows", { sample_heatmap with Output.Heatmap.values = [| [||] |] });
      ( "ragged data",
        { sample_heatmap with Output.Heatmap.values = [| [| 1. |]; [| 1.; 2. |] |] } );
      ( "x_ticks/columns mismatch",
        { sample_heatmap with Output.Heatmap.x_ticks = [| "a" |] } );
      ( "y_ticks/rows mismatch",
        { sample_heatmap with Output.Heatmap.y_ticks = [| "only" |] } );
      ( "no finite values",
        { sample_heatmap with
          Output.Heatmap.values = [| [| nan; infinity; neg_infinity |]; [| nan; nan; nan |] |] } ) ]

(* ---------------- numbers to text ---------------- *)

module Num_text = Output.Num_text

(* ties at the printed precision (exact in binary), values just around
   them, and the special values *)
let special_floats =
  [ 0.; -0.; infinity; neg_infinity; nan; Float.neg nan;
    Int64.float_of_bits 1L; Int64.float_of_bits (-9223372036854775807L);
    Float.min_float; max_float; -.max_float; Float.epsilon; 1.; -1.;
    0.125; 0.375; 2.5; 1.005; 2.675; 1234565.; 1234575.; -1234565.;
    1234567885.; 1234567895.; 12345678905.; 12345678915.; 1e21; 1e-5;
    123456.5; 0.0001; 0.00001; 99999.95; 999999.5 ]

let random_floats n =
  let rng = Numerics.Rng.create 20031 in
  List.init n (fun _ -> Int64.float_of_bits (Oracle.bits64 rng))

let with_neighbours xs =
  List.concat_map (fun x -> [ Float.pred x; x; Float.succ x ]) xs

let both_signs xs = List.concat_map (fun x -> [ x; -.x ]) xs

(* draws where most output lives: mantissa in [1, 10), decimal
   exponent -13..31, both signs *)
let fast_range_floats n =
  let rng = Numerics.Rng.create 614 in
  both_signs
    (List.init n (fun _ ->
         let m = 1. +. (9. *. Numerics.Rng.float rng) in
         m *. (10. ** float_of_int (Numerics.Rng.int rng 45 - 13))))

(* decimal ties (k + 1/2) 10^-j as the nearest double, and the doubles
   either side: the fast path must hand these to the fallback, which
   decides them on the exact binary value *)
let tie_floats =
  with_neighbours
    (List.concat_map
       (fun j ->
         List.map
           (fun k -> (float_of_int k +. 0.5) /. (10. ** float_of_int j))
           ([ 0; 1; 2; 4; 9; 12; 99; 123; 999; 4999; 12345; 99999 ]
           @ [ 123456; 999999; 1234567; 9999999; 123456789; 999999999 ]))
       (List.init 12 Fun.id))

(* powers of ten and their neighbours, where the decimal exponent's
   estimate takes its correction step *)
let decade_floats =
  both_signs
    (with_neighbours (List.init 51 (fun k -> 10. ** float_of_int (k - 20))))

(* values that round up to the next decade at some precision p:
   (10 - 5 10^-p) 10^k, e.g. 9.9999999995e+k at p = 10 *)
let carry_floats =
  both_signs
    (with_neighbours
       (List.concat_map
          (fun p ->
            List.map
              (fun k ->
                (10. -. (5. /. (10. ** float_of_int p)))
                *. (10. ** float_of_int k))
              (List.init 47 (fun k -> k - 16)))
          (List.init 10 (fun p -> p + 1))))

(* subnormals, and small negatives that print as a signed zero *)
let tiny_floats =
  both_signs
    [ Int64.float_of_bits 1L; Int64.float_of_bits 0xFFFFFFFFFFFFFL;
      Float.min_float /. 3.; 1e-310; 4.9e-324; 0.001; 0.004; 0.0049; 0.005;
      0.0051; 1e-300 ]

(* every conversion Num_text offers at every precision from 0 to 17:
   the fast path covers 1..10 (%g) and 0..10 (%f), the fallback the
   rest *)
let float_specs =
  List.concat_map
    (fun p ->
      [ ( Printf.sprintf "%%.%dg" p,
          Num_text.write_general ~digits:p,
          Printf.sprintf "%.*g" p );
        ( Printf.sprintf "%%.%dg at" p,
          (let write = Num_text.write_general_at ~digits:p in
           fun blk pos x -> write blk pos [| x |] 0),
          Printf.sprintf "%.*g" p );
        ( Printf.sprintf "%%.%df" p,
          Num_text.write_fixed ~decimals:p,
          Printf.sprintf "%.*f" p ) ])
    (List.init 18 Fun.id)

(* Where a writer is called: (block size, position).  After one byte
   and at an odd offset in a roomy block; with exactly [room] bytes
   left, and with [room] and eight more; and at a block's very end,
   where it must grow the block and keep the bytes before the position.
   The blocks are filled with letters, so a stray store shows.  Each
   placement keeps one block of its size for every write, refilled
   after each. *)
type placement = {
  pos : int;
  fill : Bytes.t;  (** the letters, never written *)
  own : Bytes.t;  (** the block's bytes while it has not grown *)
  blk : Num_text.block;
}

let placements =
  List.map
    (fun (size, pos) ->
      let fill = Bytes.init size (fun i -> Char.chr (97 + (i mod 26))) in
      let own = Bytes.copy fill in
      { pos; fill; own; blk = { Num_text.bytes = own } })
    [ (64, 1); (64, 7); (45, 45 - Num_text.room); (53, 45 - Num_text.room);
      (41, 41) ]

(* whether [a] from [i] and [b] from [j] agree on [len] bytes *)
let agree a i b j len =
  let k = ref 0 in
  while !k < len && Bytes.get a (i + !k) = Bytes.get b (j + !k) do incr k done;
  !k = len

(* [write blk pos v] at every placement must leave the bytes before
   [pos] as they were, write [expected] after them, and return its end;
   where the block did not grow, no byte past [pos + room] may change *)
let check_placed name write v expected =
  List.iter
    (fun { pos; fill; own; blk } ->
      let size = Bytes.length fill and stop = write blk pos v in
      let len = String.length expected in
      let got = blk.Num_text.bytes in
      if
        not
          (stop = pos + len
          && stop <= Bytes.length got
          && agree got 0 fill 0 pos
          && agree got pos (Bytes.unsafe_of_string expected) 0 len)
      then
        Alcotest.failf "%s at %d of %d: Printf %S, Num_text %S" name pos size
          expected
          (Bytes.sub_string got pos (max 0 (min stop (Bytes.length got) - pos)));
      let past = max stop (pos + Num_text.room) in
      let grown = got != own in
      if (not grown) && past < size && not (agree got past fill past (size - past))
      then Alcotest.failf "%s at %d of %d: a store past room" name pos size;
      (* back to the letters: a write touches [pos, past) of the block
         it was given, and one that grew it left [own] for a new one *)
      Bytes.blit fill pos own pos (min past size - pos);
      if grown then blk.Num_text.bytes <- own)
    placements

let test_num_text_floats () =
  let random = random_floats 20_000 in
  let xs random =
    special_floats
    @ List.concat_map (fun x -> [ Float.pred x; Float.succ x ]) special_floats
    @ random @ fast_range_floats 2_000 @ tie_floats @ decade_floats
    @ carry_floats @ tiny_floats
  in
  (* the specs the repo renders with take all the random bit patterns,
     the others the first thousand: each costs a microsecond or more
     through Printf, and a %f of a huge one is hundreds of digits *)
  let xs_in_use = xs random
  and xs_other = xs (List.filteri (fun i _ -> i < 1_000) random) in
  let in_use = [ "%.6g"; "%.9g"; "%.10g"; "%.6g at"; "%.10g at"; "%.2f" ] in
  List.iter
    (fun (name, write, printf) ->
      let xs = if List.mem name in_use then xs_in_use else xs_other in
      List.iter
        (fun x -> check_placed (Printf.sprintf "%s of %h" name x) write x (printf x))
        xs)
    float_specs

(* The scaled fast path over the whole double range, at every precision
   it takes (1..10), against Printf: its power-of-ten table spans every
   normal double, so each row of it is reached here. *)

(* m 2^e with a short odd m, for every binary exponent from the least
   subnormal up: few significant bits, so where e is small the decimal
   expansion ends in a 5 that falls on digit p + 1, an exact tie *)
let binary_tie_floats =
  List.concat_map
    (fun m ->
      List.init (1023 + 1074 + 1) (fun i -> Float.ldexp (float_of_int m) (i - 1074)))
    [ 1; 3; 5; 7; 9; 15; 25; 125 ]
  |> List.filter Float.is_finite

(* the double nearest the decimal [text], and both of its neighbours *)
let around text =
  let x = float_of_string text in
  [ Float.pred x; x; Float.succ x ]

(* every 10^k a double holds, and at each precision p the value
   (10 - 5 10^-p) 10^k that carries into the next decade *)
let every_decade_floats p =
  List.concat_map
    (fun k ->
      around (Printf.sprintf "1e%d" k)
      @ around (Printf.sprintf "9.%s5e%d" (String.make (p - 1) '9') k))
    (List.init (308 + 323 + 1) (fun i -> i - 323))

let test_num_text_whole_range () =
  for p = 1 to 10 do
    let write = Num_text.write_general ~digits:p in
    List.iter
      (fun x ->
        check_placed (Printf.sprintf "%%.%dg of %h" p x) write x
          (Printf.sprintf "%.*g" p x))
      (both_signs binary_tie_floats @ both_signs (every_decade_floats p))
  done

(* The cases each layout step turns on, with the text they must give:
   the all-nines carry into the next decade, signed zeros, subnormals,
   ties, non-finite values, and fallbacks longer than [room], written
   where fewer bytes than they need are left. *)
let test_num_text_edges () =
  let g p = Num_text.write_general ~digits:p
  and f d = Num_text.write_fixed ~decimals:d in
  List.iter
    (fun (name, write, x, expected) ->
      Alcotest.(check string) (name ^ " = Printf") expected
        (Printf.sprintf (Scanf.format_from_string name "%f") x);
      check_placed (Printf.sprintf "%s of %h" name x) write x expected)
    [ ("%.10g", g 10, 9.9999999996, "10");
      ("%.10g", g 10, -9.9999999996, "-10");
      ("%.6g", g 6, 999999.5, "1e+06");
      ("%.10g", g 10, -0., "-0");
      ("%.10g", g 10, 0., "0");
      ("%.2f", f 2, -0.001, "-0.00");
      ("%.10g", g 10, Int64.float_of_bits 1L, "4.940656458e-324");
      ("%.6g", g 6, -.Float.min_float /. 3., "-7.41691e-309");
      ("%.17g", g 17, Int64.float_of_bits 1L, "4.9406564584124654e-324");
      ("%.17g", g 17, -.Int64.float_of_bits 0xFFFFFFFFFFFFFL,
       "-2.2250738585072009e-308");
      ("%.1g", g 1, 0.25, "0.2");
      ("%.1g", g 1, 0.35, "0.3");
      ("%.2f", f 2, 2.675, "2.67");
      ("%.6g", g 6, 1234565., "1.23456e+06");
      ("%.10g", g 10, nan, "nan");
      ("%.10g", g 10, infinity, "inf");
      ("%.6g", g 6, neg_infinity, "-inf");
      ("%.2f", f 2, neg_infinity, "-inf");
      ("%.2f", f 2, 1e300, Printf.sprintf "%.2f" 1e300);
      ("%.2f", f 2, -1e30, Printf.sprintf "%.2f" (-1e30)) ]

let test_num_text_ints () =
  let rng = Numerics.Rng.create 4242 in
  let ints =
    [ 0; -1; 1; 9; 10; -10; 99; 100; min_int; max_int; min_int + 1;
      max_int - 1 ]
    @ List.init 19 (fun k -> int_of_string ("1" ^ String.make k '0'))
    @ List.init 2001 (fun i -> i - 1000)
    @ List.init 20_000 (fun _ -> Int64.to_int (Oracle.bits64 rng))
  in
  List.iter
    (fun n ->
      check_placed (Printf.sprintf "write_int %d" n) Num_text.write_int n
        (string_of_int n))
    ints;
  check_placed "write_int min_int" Num_text.write_int min_int
    "-4611686018427387904"

let test_num_text_guards () =
  Alcotest.check_raises "negative digits"
    (Invalid_argument "Num_text.general: negative precision") (fun () ->
      ignore
        (Num_text.write_general ~digits:(-1)
          : Num_text.block -> int -> float -> int));
  Alcotest.check_raises "negative decimals"
    (Invalid_argument "Num_text.fixed: negative precision") (fun () ->
      ignore
        (Num_text.write_fixed ~decimals:(-1)
          : Num_text.block -> int -> float -> int))

let () =
  Alcotest.run "output"
    [ ( "heatmap",
        [ Alcotest.test_case "structure" `Quick test_heatmap_structure;
          Alcotest.test_case "non-finite cells" `Quick test_heatmap_nonfinite_cells_grey;
          Alcotest.test_case "validation" `Quick test_heatmap_validation ] );
      ( "axis",
        [ Alcotest.test_case "linear projection" `Quick test_axis_projection_linear;
          Alcotest.test_case "linear ticks" `Quick test_axis_ticks_linear;
          Alcotest.test_case "of_data" `Quick test_axis_of_data;
          Alcotest.test_case "guards" `Quick test_axis_guards ] );
      ( "svg",
        [ Alcotest.test_case "structure" `Quick test_svg_document_structure;
          Alcotest.test_case "escaping" `Quick test_svg_escaping;
          Alcotest.test_case "degenerate polyline" `Quick
            test_svg_degenerate_polyline_dropped;
          Alcotest.test_case "save" `Quick test_svg_save_roundtrip ] );
      ( "chart",
        [ Alcotest.test_case "series + legend" `Quick test_chart_renders_series_and_legend;
          Alcotest.test_case "clipping" `Quick test_chart_clips_out_of_range ] );
      ( "ascii",
        [ Alcotest.test_case "marks" `Quick test_ascii_plot_marks_series;
          Alcotest.test_case "guards" `Quick test_ascii_plot_guards ] );
      ( "table",
        [ Alcotest.test_case "text" `Quick test_table_text_alignment ] );
      ( "num_text",
        [ Alcotest.test_case "floats = Printf" `Quick test_num_text_floats;
          Alcotest.test_case "whole exponent range = Printf" `Quick
            test_num_text_whole_range;
          Alcotest.test_case "edges at a block's end = Printf" `Quick
            test_num_text_edges;
          Alcotest.test_case "write_int = string_of_int" `Quick
            test_num_text_ints;
          Alcotest.test_case "guards" `Quick test_num_text_guards ] );
      ( "csv",
        [ Alcotest.test_case "quoting" `Quick test_csv_quoting;
          Alcotest.test_case "series join" `Quick test_csv_series_join;
          Alcotest.test_case "grid mismatch" `Quick test_csv_series_grid_mismatch ] ) ]
