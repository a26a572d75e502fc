(** Strongly connected components and bottom SCCs.

    BSCCs (SCCs with no outgoing edge) are where a finite chain ends up
    with probability one; they drive qualitative model checking and the
    long-run analysis of reducible chains. *)

type t = {
  component : int array;  (** Component id per state, ids in [0, count). *)
  count : int;
}

val tarjan_adjacency : size:int -> successors:(int -> int list) -> t
(** Tarjan's algorithm over the graph on vertices [0 .. size-1] whose
    edges leave [v] towards [successors v].  Component ids are assigned
    in reverse topological order: edges go from higher ids to lower or
    equal ids.  Iterative, so the depth of the graph is bounded by the
    heap, not the call stack. *)

val tarjan : Chain.t -> t
(** {!tarjan_adjacency} over the chain's positive-probability edge
    relation. *)

val members : t -> int -> int list
(** States of one component, ascending. *)

val is_bottom : Chain.t -> t -> int -> bool
(** No edge leaves the component. *)

val bottom_components : Chain.t -> int list list
(** The BSCCs, each as an ascending state list.  For an absorbing chain
    these are exactly the singletons of absorbing states. *)

val is_irreducible : Chain.t -> bool
