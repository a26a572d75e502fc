(** Floating-point helpers used throughout the numeric substrate.

    The zeroconf cost model mixes quantities spanning more than 50
    orders of magnitude (error costs around [1e35] against probabilities
    down to [1e-120]), so the rest of the library leans on the
    cancellation-free primitives collected here. *)

val epsilon : float
(** Machine epsilon for 64-bit floats ([Stdlib.epsilon_float]). *)

(** {1 Sanctioned float primitives}

    The repo's R1 lint rule ({e float hygiene}, see [tools/lint] and
    DESIGN.md "Static analysis") forbids raw [log] / [exp] / [( ** )] /
    [( /. )] in the probability-carrying modules: those quantities mix
    magnitudes from [1e-120] to [1e35], and a stray [log 0.] or [0./.0.]
    silently poisons everything downstream.  The three names below are
    the sanctioned spellings — re-declared externals and a [%divfloat]
    alias, so they compile to exactly the Stdlib instruction and results
    are bit-identical — giving every NaN-capable primitive on the
    Eq. 3/4 path one greppable, lintable audit point. *)

external log : float -> float = "caml_log_float" "log"
[@@unboxed] [@@noalloc]
(** [Stdlib.log], sanctioned.  Callers own the [x >= 0.] obligation and
    must guard or document the [x = 0.] → [neg_infinity] case. *)

external exp : float -> float = "caml_exp_float" "exp"
[@@unboxed] [@@noalloc]
(** [Stdlib.exp], sanctioned. *)

external div : float -> float -> float = "%divfloat"
(** [( /. )], sanctioned.  Callers own the zero-divisor guard. *)

val approx_eq : float -> float -> bool
(** [approx_eq a b] holds when [|a - b| <= 1e-9 * max |a| |b|].  [nan]
    is never approximately equal to anything; equal infinities are. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] bounds [x] into [\[lo, hi\]].  Raises
    [Invalid_argument] if [lo > hi]. *)

val clamp_probability : float -> float
(** Clamp into [\[0, 1\]]; intended for values that are probabilities up
    to rounding noise. *)

val sum : float array -> float
(** Kahan–Babuska (Neumaier) compensated sum. *)

val sum_by : ('a -> float) -> 'a array -> float
(** [sum_by f xs] is the compensated sum of [f xs.(0) .. f xs.(n - 1)],
    without building the mapped array; equal to [sum (Array.map f xs)]
    bit for bit. *)

val sum_list : float list -> float
(** Compensated sum over a list. *)

val mean : float array -> float
(** Compensated arithmetic mean.  Raises [Invalid_argument] on an empty
    array. *)

val is_probability : float -> bool
(** True when the value lies in [\[0, 1\]] (and is not [nan]). *)
