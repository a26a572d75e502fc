(** Minimal SVG document builder — enough vocabulary for line charts:
    paths, lines, rectangles and text.  Geometric
    arguments are [(x, y)] pairs in user units. *)

type t

val create : width:int -> height:int -> t

val line :
  t -> stroke:string -> ?stroke_width:float -> float * float ->
  float * float -> unit
(** [line t p1 p2]. *)

val polyline : t -> stroke:string -> float array -> float array -> int -> unit
(** [polyline t xs ys len]: the points [(xs.(i), ys.(i))] for
    [i < len], rendered as one open path, 1.5 units wide; nothing for
    fewer than two points. *)

val rect :
  t -> ?fill:string -> ?stroke:string -> float * float -> float * float -> unit
(** [rect t (x, y) (w, h)]. *)

val text :
  t -> ?size:int -> ?anchor:string -> x:float -> y:float -> string -> unit
(** Dark grey text; [anchor] is an SVG [text-anchor]: ["start"],
    ["middle"], or ["end"]. *)

val save : t -> string -> unit
(** Write the document to a file. *)
