(** Reachability probabilities — the core query of probabilistic model
    checking ("P=? [F target]"), which is exactly how the zeroconf model
    is phrased in the PRISM benchmark suite.

    The implementation does the standard qualitative precomputation
    (identify states that reach the target with probability 0, and with
    probability 1) and solves a linear system ({!Sparse.solve}) only
    for the remainder.  {!until} and {!bounded_until} are the forms
    that {!Pctl} checks; {!never} is the qualitative question
    {!Absorbing} asks. *)

val until : Chain.t -> phi:bool array -> psi:bool array -> float array
(** Per state, the probability of reaching a [psi]-state along
    [phi]-states ("P=? [phi U psi]"). *)

val bounded_until :
  Chain.t -> phi:bool array -> psi:bool array -> k:int -> float array
(** The same within [k] steps ("P=? [phi U<=k psi]"), by [k] sparse
    matrix-vector products.  Raises [Invalid_argument] when [k < 0]. *)

val never : Chain.t -> target:int list -> bool array
(** States that cannot reach the target at all. *)
