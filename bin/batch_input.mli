(** The [zeroconf_cli batch] front end: query lines in, one
    {!Engine.Batch.t} out.

    One query per line: [QUANTITY [key=value ...]].  Keys:
    [scenario=NAME] (a {!Zeroconf.Params.presets} name), [n=INT],
    [r=FLOAT], [ns=LO:HI] (inclusive int range), [rs=LO:HI:POINTS]
    (linear grid), [backend=NAME] (case-insensitive), and, with
    [backend=mc] only, [trials=INT] and [seed=INT].  Each key may
    appear once; [ns] excludes [n] and [rs], [rs] excludes [r].
    Tokens are separated by blanks and tabs, ['#'] starts a comment,
    and blank lines are skipped.  Defaults: [scenario=figure2 n=4
    r=2]. *)

val parse_line : int -> string -> (Engine.Query.t * string option) option
(** [parse_line lineno line] is the line's query and forced backend,
    or [None] for a blank or comment-only line.  Raises [Failure
    "line LINENO: ..."] on a malformed line. *)

val read : string -> Engine.Batch.t
(** [read text] parses every line of [text] ('\n'-separated, numbered
    from 1) and appends each query to one batch in place: its plan
    routed as {!Engine.Planner.plan} routes it, its points validated
    once, as {!Engine.Query.validate} does.  Nothing is built per line.
    Raises the [Failure] of the first line that fails, in line order;
    the planner's refusals and the validation's [Invalid_argument]
    become [Failure "line N: ..."] too. *)
