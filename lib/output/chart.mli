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

val render : t -> Svg.t
(** A 720 x 480 chart.  Points outside the axis ranges are clipped (the polyline is broken
    there), matching how the paper's plot frames hide the huge [C_1],
    [C_2] values. *)

val save : t -> string -> unit
