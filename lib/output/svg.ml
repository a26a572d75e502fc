(* The document is written into one buffer as it is built: the header
   at [create], each element on a line of its own, the closing tag at
   [save]. *)
type t = { buf : Buffer.t; mutable empty : bool }

let create ~width ~height =
  if width < 1 || height < 1 then invalid_arg "Svg.create: non-positive size";
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    {|<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">
<rect width="%d" height="%d" fill="white"/>
|}
    width height width height width height;
  { buf; empty = true }

let add_escaped b s =
  String.iter
    (function
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s

(* Every element's numbers are appended by Num_text at two decimals,
   the [%.2f] of every coordinate, size and stroke width. *)
let add_coord = Num_text.add_fixed ~decimals:2

let element t build =
  if t.empty then t.empty <- false else Buffer.add_char t.buf '\n';
  build t.buf

(* [ name="v"] with [v] at two decimals *)
let num_attr b name v =
  Buffer.add_char b ' ';
  Buffer.add_string b name;
  Buffer.add_string b "=\"";
  add_coord b v;
  Buffer.add_char b '"'

let str_attr b name v =
  Buffer.add_char b ' ';
  Buffer.add_string b name;
  Buffer.add_string b "=\"";
  Buffer.add_string b v;
  Buffer.add_char b '"'

(* stroke and stroke-width, then the tag's end *)
let add_stroke_end b stroke stroke_width =
  str_attr b "stroke" stroke;
  num_attr b "stroke-width" stroke_width;
  Buffer.add_string b "/>"

let line t ?(stroke = "#000") ?(stroke_width = 1.) (x1, y1) (x2, y2) =
  element t @@ fun b ->
  Buffer.add_string b "<line";
  num_attr b "x1" x1;
  num_attr b "y1" y1;
  num_attr b "x2" x2;
  num_attr b "y2" y2;
  add_stroke_end b stroke stroke_width

let polyline t ?(stroke = "#000") xs ys len =
  if len >= 2 then begin
    element t @@ fun b ->
    Buffer.add_string b "<polyline points=\"";
    for i = 0 to len - 1 do
      if i > 0 then Buffer.add_char b ' ';
      add_coord b xs.(i);
      Buffer.add_char b ',';
      add_coord b ys.(i)
    done;
    Buffer.add_char b '"';
    str_attr b "fill" "none";
    add_stroke_end b stroke 1.5
  end

let rect t ?(fill = "none") ?(stroke = "none") (x, y) (w, h) =
  element t @@ fun b ->
  Buffer.add_string b "<rect";
  num_attr b "x" x;
  num_attr b "y" y;
  num_attr b "width" w;
  num_attr b "height" h;
  str_attr b "fill" fill;
  str_attr b "stroke" stroke;
  Buffer.add_string b "/>"

let text t ?(size = 11) ?(anchor = "start") ~x ~y s =
  element t @@ fun b ->
  Buffer.add_string b "<text";
  num_attr b "x" x;
  num_attr b "y" y;
  Buffer.add_string b " font-size=\"";
  Num_text.add_int b size;
  Buffer.add_char b '"';
  str_attr b "font-family" "sans-serif";
  str_attr b "text-anchor" anchor;
  str_attr b "fill" "#333";
  Buffer.add_char b '>';
  add_escaped b s;
  Buffer.add_string b "</text>"

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Buffer.output_buffer oc t.buf;
      output_string oc "\n</svg>\n")
