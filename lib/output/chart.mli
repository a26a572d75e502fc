(** Multi-series line charts rendered to SVG — the renderer behind the
    regenerated Figures 2–6. *)

type series = { label : string; points : (float * float) array }

val series : label:string -> (float * float) array -> series
(** One solid polyline with a legend entry. *)

type t = {
  title : string;
  x_label : string;
  y_label : string;
  x_axis : Axis.t;
  y_axis : Axis.t;
  series : series list;
}

val save : t -> string -> unit
