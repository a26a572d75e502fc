(** One-call executive summary of a scenario: everything a protocol
    designer needs on one page, as Markdown.

    Pulls together the whole analysis surface — optimum vs draft
    (Sec. 6's comparison), the minimal useful probe count (Sec. 4.4),
    configuration-time quantiles, the reliability at both operating
    points, the Pareto knee, and the dominant sensitivities — for any
    scenario. *)

open Zeroconf

val assessment : draft_n:int -> draft_r:float -> Params.t -> Assessment.t
(** {!Zeroconf.Assessment.run}, its draft point first checked as a
    mean-cost query: raises [Invalid_argument] where {!Query.validate}
    refuses that query, past whose bound the draft's cost is [inf]. *)

val markdown : draft_n:int -> draft_r:float -> Params.t -> string
(** The report, comparing the optimum with the draft point [draft_n],
    [draft_r] (the Internet draft's are [4] and [2.]).  Raises
    [Invalid_argument] where {!Query.validate} refuses a mean-cost query
    at the draft point. *)
