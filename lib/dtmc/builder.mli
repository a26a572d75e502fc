(** Declarative chain construction: name the states, list the weighted
    edges (with optional costs), and get a validated chain plus reward
    structure.  Rows with no outgoing edge become absorbing
    automatically, matching the modelling convention of the paper's
    Figure 1. *)

type t

val create : unit -> t

val add_state : t -> string -> unit
(** Declares a state; idempotent. *)

val add_edge : ?cost:float -> t -> src:string -> dst:string -> prob:float -> unit
(** Adds a transition (declaring endpoints as needed).  Duplicate edges
    accumulate probability; their costs must agree.  Raises
    [Invalid_argument] on non-positive probability or conflicting
    costs. *)

val build : ?tol:float -> t -> Chain.t * Reward.t
(** Validates that out-probabilities sum to one for every state with
    edges, makes edge-less states absorbing, and returns the chain with
    its rewards.  State order is declaration order. *)
