(** Linear axis scaling and tick generation for the chart renderers. *)

type t

val create : lo:float -> hi:float -> unit -> t
(** Needs [lo < hi]. *)

val lo : t -> float
val hi : t -> float

val project : t -> float -> float
(** Map a data value into [\[0, 1\]] (clamped):
    [(v - lo) / (hi - lo)]. *)

val ticks : t -> (float * string) list
(** "Nice" tick positions (multiples of 1, 2, 5 x 10^k) with compact
    labels; roughly 6 of them. *)

val of_data : ?pad:float -> float array -> t
(** Axis spanning the finite data, padded by [pad] (default [0.05]) of
    the span on each side.  Raises [Invalid_argument] on data with no
    finite value. *)
