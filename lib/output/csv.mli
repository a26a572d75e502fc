(** CSV export of experiment series (RFC-4180 quoting). *)

val write_series :
  path:string -> x_label:string -> (string * (float * float) array) list -> unit
(** Join several (x, y) series on their x values (which must agree
    across series, as the experiment grids do) into one wide CSV.
    Raises [Invalid_argument] when the grids differ. *)
