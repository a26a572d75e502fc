(** The one place numbers become output text.

    The renderings are the bytes [Printf] produces for the same
    conversion.  {!add_general}, {!add_general_at} and {!add_fixed}
    append them straight into a [Buffer.t].

    Every normal double takes one exact path: [|x|] is scaled by [10^s]
    into an integer range below [10^10 < 2^34] and rounded once.  The
    power comes from a table of [10^s] for [s] in [[-308, 317]], each
    a mantissa in [[1, 2)] within half an ulp (it is built at start-up
    by an exact double-double recurrence, in microseconds, and never
    written again) times a power of two, which is applied exactly.  So
    the scaled value carries two roundings and is off by less than
    [2^-18]; its rounding equals that of the exact decimal value unless
    its fraction lies within [1e-5] of a half.  The digits are laid out
    by C's rules, eight at a time, and nothing is allocated.  Every
    other value (a fraction within that margin, a subnormal, a
    non-finite value, a precision of 0 or above 10) goes to the runtime
    primitive [caml_format_float], which [Printf]'s [%g] and [%f] also
    end in, with a conversion spec built once per precision.
    {!add_int} writes decimal digits without going through a string.
    The module holds no mutable state, so any domain may call it. *)

val add_int : Buffer.t -> int -> unit
(** Append [string_of_int n]: optional ['-'], then the decimal digits,
    for every [int] including [min_int]. *)

val add_general : digits:int -> Buffer.t -> float -> unit
(** [add_general ~digits b x] appends [Printf.sprintf "%.<digits>g" x];
    [%g] is [~digits:6].  The fast path covers [1 <= digits <= 10] and
    every normal double (a zero of either sign too).  Apply it to
    [~digits] once and keep the resulting function: that is where the
    fallback's spec is built.
    Raises [Invalid_argument] on a negative [digits]. *)

val add_general_at : digits:int -> Buffer.t -> float array -> int -> unit
(** [add_general_at ~digits b a i] is [add_general ~digits b a.(i)],
    read out of the array where it stands: on the fast path the value
    is never boxed, so a column of floats becomes text without
    allocating.  Apply it to [~digits] once, as {!add_general}. *)

val add_fixed : decimals:int -> Buffer.t -> float -> unit
(** [add_fixed ~decimals b x] appends [Printf.sprintf "%.<decimals>f" x].
    The fast path covers [decimals <= 10] and [|x| 10^decimals < 10^10];
    a negative value keeps its sign even when it prints as zero
    ([-0.001] at two decimals is ["-0.00"]).  Apply it to [~decimals]
    once, as {!add_general}.  Raises [Invalid_argument] on a negative
    [decimals]. *)
