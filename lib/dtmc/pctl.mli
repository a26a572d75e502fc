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

val satisfaction : Chain.t -> labelling -> formula -> bool array
(** The satisfying states.  Probability thresholds are compared with a
    relative epsilon ([1e-9]), so a solver result equal to the bound up
    to rounding counts as equal: [Ge]/[Le] are forgiving, [Gt]/[Lt]
    conservative. *)

val holds : Chain.t -> labelling -> from:int -> formula -> bool

val path_probability : Chain.t -> labelling -> from:int -> path -> float
(** The raw probability of the path formula — the "P=?" query. *)

val label_of_state : Chain.t -> labelling
(** The default labelling: each state's own label in the chain's state
    space is an atomic proposition true exactly there. *)

(** {1 Reward queries (PRISM's R operator)} *)

val reward_to_reach : Reward.t -> labelling -> formula -> float array
(** [R=? \[F phi\]]: expected reward accumulated until first reaching a
    [phi]-state — [infinity] where that is not almost sure, [0.] on
    [phi]-states themselves.  With the zeroconf DRM's cost rewards and
    [phi = error | ok] this is exactly Eq. 3. *)

val reward_holds :
  Reward.t -> labelling -> from:int -> comparison -> float -> formula -> bool
(** [R ⋈ bound \[F phi\]] at one state, with the same epsilon policy as
    the probability thresholds ([infinity] compares plainly). *)
