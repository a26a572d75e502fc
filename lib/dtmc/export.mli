(** Export chains to external tool formats. *)

val to_dot : costs:Reward.t -> highlight:int list -> Chain.t -> string
(** Graphviz digraph, laid out left to right: one node per state
    (labelled), one edge per positive-probability transition annotated
    with its probability and its non-zero cost in [costs].  [highlight]
    states are drawn with a double border (e.g. absorbing states). *)

val to_tra :
  Chain.t -> string
(** The explicit ".tra" transition-list format used by PRISM/Storm:
    a header line "states transitions" followed by
    "src dst probability" rows. *)
