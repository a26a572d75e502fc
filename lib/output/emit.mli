(** The sanctioned console sink.

    The R4 lint rule (I/O containment, see [tools/lint] and DESIGN.md
    "Static analysis") forbids [print_*] / [Printf.printf] / stderr
    writes anywhere in [lib/] outside [lib/output]: library code
    returns strings or structured values, and whatever must reach the
    console reaches it through here (or through [Logs]).  Keeping the
    sink one module wide is what makes "does the library ever write to
    stdout?" a greppable question.

    Bulk console output (the [zeroconf_cli batch] answers) does not go
    line by line through a sink: the executable builds it in one buffer
    and writes that to stdout in large pieces, never flushing per line. *)

val print_string : string -> unit
(** Write to stdout, no newline, no flush. *)
