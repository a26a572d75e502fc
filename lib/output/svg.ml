(* The document is composed in one block of its own as it is built: the
   header at [create], each element on a line of its own, the closing
   tag at [save]. *)
module N = Num_text

type t = { blk : N.block; mutable pos : int; mutable empty : bool }

let create ~width ~height =
  if width < 1 || height < 1 then invalid_arg "Svg.create: non-positive size";
  let blk = N.block 4096 in
  let pos =
    N.write_string blk 0
      (Printf.sprintf
         {|<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">
<rect width="%d" height="%d" fill="white"/>
|}
         width height width height width height)
  in
  { blk; pos; empty = true }

let write_escaped blk pos s =
  String.fold_left
    (fun pos -> function
      | '&' -> N.write_string blk pos "&amp;"
      | '<' -> N.write_string blk pos "&lt;"
      | '>' -> N.write_string blk pos "&gt;"
      | '"' -> N.write_string blk pos "&quot;"
      | c -> N.write_char blk pos c)
    pos s

(* Every element's numbers are written by Num_text at two decimals,
   the [%.2f] of every coordinate, size and stroke width. *)
let write_coord = N.write_fixed ~decimals:2

(* [build blk pos] writes the element at [pos] and returns its end *)
let element t build =
  let pos = if t.empty then t.pos else N.write_char t.blk t.pos '\n' in
  t.empty <- false;
  t.pos <- build t.blk pos

(* [ name="v"] with [v] at two decimals *)
let num_attr blk pos name v =
  let pos = N.write_char blk pos ' ' in
  let pos = N.write_string blk pos name in
  let pos = N.write_string blk pos "=\"" in
  N.write_char blk (write_coord blk pos v) '"'

let str_attr blk pos name v =
  let pos = N.write_char blk pos ' ' in
  let pos = N.write_string blk pos name in
  let pos = N.write_string blk pos "=\"" in
  N.write_char blk (N.write_string blk pos v) '"'

(* stroke and stroke-width, then the tag's end *)
let write_stroke_end blk pos stroke stroke_width =
  let pos = str_attr blk pos "stroke" stroke in
  let pos = num_attr blk pos "stroke-width" stroke_width in
  N.write_string blk pos "/>"

let line t ~stroke ?(stroke_width = 1.) (x1, y1) (x2, y2) =
  element t @@ fun blk pos ->
  let pos = N.write_string blk pos "<line" in
  let pos = num_attr blk pos "x1" x1 in
  let pos = num_attr blk pos "y1" y1 in
  let pos = num_attr blk pos "x2" x2 in
  let pos = num_attr blk pos "y2" y2 in
  write_stroke_end blk pos stroke stroke_width

let polyline t ~stroke xs ys len =
  if len >= 2 then begin
    element t @@ fun blk pos ->
    let pos = ref (N.write_string blk pos "<polyline points=\"") in
    for i = 0 to len - 1 do
      if i > 0 then pos := N.write_char blk !pos ' ';
      pos := write_coord blk !pos xs.(i);
      pos := write_coord blk (N.write_char blk !pos ',') ys.(i)
    done;
    let pos = N.write_char blk !pos '"' in
    let pos = str_attr blk pos "fill" "none" in
    write_stroke_end blk pos stroke 1.5
  end

let rect t ?(fill = "none") ?(stroke = "none") (x, y) (w, h) =
  element t @@ fun blk pos ->
  let pos = N.write_string blk pos "<rect" in
  let pos = num_attr blk pos "x" x in
  let pos = num_attr blk pos "y" y in
  let pos = num_attr blk pos "width" w in
  let pos = num_attr blk pos "height" h in
  let pos = str_attr blk pos "fill" fill in
  let pos = str_attr blk pos "stroke" stroke in
  N.write_string blk pos "/>"

let text t ?(size = 11) ?(anchor = "start") ~x ~y s =
  element t @@ fun blk pos ->
  let pos = N.write_string blk pos "<text" in
  let pos = num_attr blk pos "x" x in
  let pos = num_attr blk pos "y" y in
  let pos = N.write_string blk pos " font-size=\"" in
  let pos = N.write_char blk (N.write_int blk pos size) '"' in
  let pos = str_attr blk pos "font-family" "sans-serif" in
  let pos = str_attr blk pos "text-anchor" anchor in
  let pos = str_attr blk pos "fill" "#333" in
  let pos = N.write_char blk pos '>' in
  let pos = write_escaped blk pos s in
  N.write_string blk pos "</text>"

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output oc t.blk.N.bytes 0 t.pos;
      output_string oc "\n</svg>\n")
