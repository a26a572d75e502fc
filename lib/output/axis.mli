(** Axis scaling and tick generation for the chart renderers. *)

type scale = Linear | Log10

type t

val create : ?scale:scale -> lo:float -> hi:float -> unit -> t
(** [lo < hi]; a log axis additionally needs [lo > 0]. *)

val lo : t -> float
val hi : t -> float

val project : t -> float -> float
(** Map a data value into [\[0, 1\]] (clamped). *)

val ticks : t -> (float * string) list
(** "Nice" tick positions (multiples of 1, 2, 5 x 10^k on linear axes;
    decades on log axes) with compact labels; roughly 6 of them. *)

val of_data : ?pad:float -> float array -> t
(** Linear axis spanning the finite data, padded by [pad] (default
    [0.05]) of the span on each side.  Raises [Invalid_argument] on
    data with no finite value. *)
