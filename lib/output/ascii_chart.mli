(** Terminal line plots, so `dune exec` output shows the figures' shape
    without leaving the shell. *)

val plot :
  ?width:int -> ?height:int -> x_axis:Axis.t -> y_axis:Axis.t ->
  title:string -> (string * (float * float) array) list -> string
(** Render the series onto a character canvas (each series gets the
    marks [a], [b], [c], ...; overlaps show the later series), points
    outside the axes left out.  Raises [Invalid_argument] when no point
    is finite.  Returns a multi-line string. *)
