(** Sample grids for parameter sweeps (the [r]-axes of Figures 2–6). *)

val linspace : float -> float -> int -> float array
(** [linspace a b n] gives [n] points from [a] to [b] inclusive.
    Requires [n >= 2] (or [n = 1] with [a = b]). *)

val map_sweep : (float -> 'a) -> float array -> (float * 'a) array
(** Evaluate a function over a grid, in grid order, pairing each
    abscissa with its value. *)
