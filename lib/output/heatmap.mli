(** Grid heatmaps (SVG): the natural rendering for the cost landscape
    [C(n, r)] over the design grid. *)

type t = {
  title : string;
  x_label : string;
  y_label : string;
  x_ticks : string array;  (** One label per column. *)
  y_ticks : string array;  (** One label per row. *)
  values : float array array;
      (** [values.(row).(col)]; rows render bottom-up so the first row
          sits at the bottom, matching axis convention. *)
}

val save : t -> string -> unit
