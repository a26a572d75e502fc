(** The one place numbers become output text.

    The renderings are the bytes [Printf] produces for the same
    conversion: {!general} and {!fixed} call the runtime primitive
    [caml_format_float], which [Printf]'s [%g] and [%f] also end in, but
    with a conversion spec built once per precision instead of on every
    call.  {!add_int} writes decimal digits without going through a
    string. *)

val add_int : Buffer.t -> int -> unit
(** Append [string_of_int n]: optional ['-'], then the decimal digits,
    for every [int] including [min_int]. *)

val general : digits:int -> float -> string
(** [general ~digits] is [Printf.sprintf "%.<digits>g"]; [%g] is
    [general ~digits:6].  Apply it to [~digits] once and keep the
    resulting function: that is where the spec is built.  Raises
    [Invalid_argument] on a negative [digits]. *)

val fixed : decimals:int -> float -> string
(** [fixed ~decimals] is [Printf.sprintf "%.<decimals>f"], built the
    same way as {!general}.  Raises [Invalid_argument] on a negative
    [decimals]. *)
