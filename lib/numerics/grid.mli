(** Sample grids for parameter sweeps (the [r]-axes of Figures 2–6). *)

val linspace : float -> float -> int -> float array
(** [linspace a b n] gives [n] points from [a] to [b] inclusive.
    Requires [n >= 2] (or [n = 1] with [a = b]). *)

val map_sweep : (float -> 'a) -> float array -> (float * 'a) array
(** Evaluate a function over a grid, in grid order, pairing each
    abscissa with its value. *)

val chunks : int -> 'a array -> 'a array array
(** [chunks k xs] splits [xs] into at most [k] contiguous chunks whose
    lengths differ by at most one (concatenating them restores [xs]).
    Returns fewer than [k] chunks when [xs] is shorter than [k], and
    [[||]] on an empty input; no chunk is ever empty.  This is the
    work-splitting primitive of the [Exec] domain pool.  Raises
    [Invalid_argument] if [k < 1]. *)
