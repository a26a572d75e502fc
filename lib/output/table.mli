(** Aligned text and Markdown tables for the experiment reports. *)

type align = Left | Right

type t

val create : columns:(string * align) list -> t
val add_row : t -> string list -> unit
(** Raises [Invalid_argument] on a column-count mismatch. *)

val to_text : t -> string
(** Box-drawing-free aligned plain text. *)
