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

val read_channel : In_channel.t -> Engine.Batch.t
(** [read_channel ic] is [read] of everything [ic] holds from its
    position on, bit for bit (the same batch, or the same first
    [Failure]), without holding the whole input.  The input is read in
    chunks of at most 64 KiB into one buffer, and [read]'s parser runs
    on each chunk's complete lines as they stand in it; the partial line
    a chunk ends on is moved to the buffer's start and completed by the
    next chunk, and at the end of the input it is the last line.  Line
    numbers run on across chunks.

    Sizing: when [ic] has a length (a file, or standard input redirected
    from one), the buffer holds at most what is left to read, so a
    one-line input takes a buffer of its own size, and the batch starts
    with room for a plan and a run per 60 bytes of it, as [read] does.
    A pipe has no length (nor does a file that reports 0 bytes): the
    buffer is then 64 KiB, and the batch starts at a 64 KiB input's room
    and grows.  Either way the buffer doubles only to hold a line longer
    than itself. *)
