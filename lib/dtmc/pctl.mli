(** A PCTL model checker for labelled chains.

    Zeroconf is a standard benchmark of probabilistic model checkers;
    this module closes the loop by checking PCTL formulas directly on
    our chains — "the probability of configuring without ever aborting
    is at least 0.98" is [P (Ge, 0.98, Until (Not (Ap "start2"), Ap "ok"))]
    style.  The implementation is the textbook algorithm
    (Baier–Katoen ch. 10): qualitative precomputation of the
    probability-0 and probability-1 sets, then one linear solve for the
    remainder; bounded operators by value iteration. *)

type comparison = Ge | Gt | Le | Lt

type formula =
  | True
  | Ap of string             (** Atomic proposition, resolved by the labelling. *)
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Implies of formula * formula
  | Prob of comparison * float * path
      (** [P ⋈ p \[path\]]. *)

and path =
  | Next of formula
  | Until of formula * formula
  | Bounded_until of formula * formula * int
  | Eventually of formula            (** [True U phi]. *)
  | Bounded_eventually of formula * int
  | Globally of formula              (** [¬ F ¬ phi]. *)

type labelling = string -> int -> bool
(** [labelling ap state] decides the atomic propositions.  Unknown
    proposition names should raise [Not_found]. *)

val holds : Chain.t -> labelling -> from:int -> formula -> bool

val path_probability : Chain.t -> labelling -> from:int -> path -> float
(** The raw probability of the path formula — the "P=?" query. *)

val label_of_state : Chain.t -> labelling
(** The default labelling: each state's own label in the chain's state
    space is an atomic proposition true exactly there. *)
