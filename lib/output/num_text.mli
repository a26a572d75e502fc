(** The one place numbers become output text.

    The renderings are the bytes [Printf] produces for the same
    conversion.  Each writer puts them into a caller's {!block} at a
    position the caller keeps, and returns the position after them.

    Every normal double takes one exact path: [|x|] is scaled by [10^s]
    into an integer range below [10^10 < 2^34] and rounded once.  The
    power comes from a table of [10^s] for [s] in [[-308, 317]], each
    a mantissa in [[1, 2)] within half an ulp (it is built at start-up
    by an exact double-double recurrence, in microseconds, and never
    written again) times a power of two, which is applied exactly: the
    table holds each power as float factors whose products are exact,
    so no bits are turned back into a double.  So
    the scaled value carries two roundings and is off by less than
    [2^-18]; its rounding equals that of the exact decimal value unless
    its fraction lies within [1e-5] of a half.  The digits go out as one
    block of eight-byte words, and C's layout (the point, the trim of
    trailing zeros, the exponent) is byte moves over that block; nothing
    is allocated.  Every other value (a fraction within that margin, a
    subnormal, a non-finite value, a precision of 0 or above 10) goes to
    the runtime primitive [caml_format_float], which [Printf]'s [%g] and
    [%f] also end in, with a conversion spec built once per precision.
    {!write_int} writes decimal digits without going through a string.
    The module holds no mutable state, so any domain may call it; a
    block belongs to the caller that made it. *)

type block = { mutable bytes : Bytes.t }
(** Text composed in [bytes], at positions its owner keeps.  A writer
    needs {!room} bytes at its position for any rendering but a long
    fallback; it grows [bytes] (keeping the bytes before the position)
    when they are not there, so only the owner's position must lie
    within [bytes].  A block is not shared across domains. *)

val room : int
(** The bytes a writer may touch past its position, the fallback
    aside: every fast rendering and every [int] fits, with the slack of
    the eight-byte stores. *)

val block : int -> block
(** A fresh block of at least that many bytes (and {!room}). *)

val reserve : block -> int -> int -> Bytes.t
(** [reserve blk pos n] is [blk.bytes] with at least [n] bytes past
    [pos], grown (to at least twice the old size) if they were not
    there. *)

val write_string : block -> int -> string -> int
val write_char : block -> int -> char -> int

val write_int : block -> int -> int -> int
(** [write_int blk pos n] writes [string_of_int n] at [pos]: optional
    ['-'], then the decimal digits, for every [int] including
    [min_int]. *)

val write_general : digits:int -> block -> int -> float -> int
(** [write_general ~digits blk pos x] writes
    [Printf.sprintf "%.<digits>g" x] at [pos]; [%g] is [~digits:6].
    The fast path covers [1 <= digits <= 10] and every normal double (a
    zero of either sign too).  Apply it to [~digits] once and keep the
    resulting function: that is where the fallback's spec is built.
    Raises [Invalid_argument] on a negative [digits]. *)

val write_general_at :
  digits:int -> block -> int -> float array -> int -> int
(** [write_general_at ~digits blk pos a i] is
    [write_general ~digits blk pos a.(i)], read out of the array where
    it stands: on the fast path the value is never boxed, so a column
    of floats becomes text without allocating.  Apply it to [~digits]
    once, as {!write_general}. *)

val write_fixed : decimals:int -> block -> int -> float -> int
(** [write_fixed ~decimals blk pos x] writes
    [Printf.sprintf "%.<decimals>f" x] at [pos].  The fast path covers
    [decimals <= 10] and [|x| 10^decimals < 10^10]; a negative value
    keeps its sign even when it prints as zero ([-0.001] at two decimals
    is ["-0.00"]).  Apply it to [~decimals] once, as {!write_general}.
    Raises [Invalid_argument] on a negative [decimals]. *)
