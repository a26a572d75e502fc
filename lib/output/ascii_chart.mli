(** Terminal line plots, so `dune exec` output shows the figures' shape
    without leaving the shell. *)

val plot :
  x_axis:Axis.t -> y_axis:Axis.t -> title:string ->
  (string * (float * float) array) list -> string
(** Render the series onto a 72 x 20 character canvas (each series gets the
    marks [a], [b], [c], ...; overlaps show the later series), points
    outside the axes left out.  Raises [Invalid_argument] when no point
    is finite.  Returns a multi-line string. *)
