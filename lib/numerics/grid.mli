(** Sample grids for parameter sweeps (the [r]-axes of Figures 2–6). *)

val linspace : float -> float -> int -> float array
(** [linspace a b n] gives [n] points from [a] to [b] inclusive.
    Requires [n >= 2] (or [n = 1] with [a = b]). *)

val logspace : float -> float -> int -> float array
(** [logspace a b n] gives [n] points whose base-10 logarithms are
    equispaced between [a] and [b]: from [10^a] to [10^b]. *)

val geomspace : float -> float -> int -> float array
(** [geomspace a b n] gives [n] geometrically-spaced points from [a]
    to [b]; both must be strictly positive. *)

val arange : ?step:float -> float -> float -> float array
(** [arange a b] gives points [a, a+step, ...] strictly below [b]
    (default [step = 1.]). *)

val midpoints : float array -> float array
(** Midpoints of consecutive entries; length shrinks by one. *)

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
