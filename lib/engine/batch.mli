(** A batch of plans as one struct of arrays: what the executor and
    every backend evaluate.

    Plan [p] ([0 <= p < plans]) keeps its quantity, route and interned
    scenario id ({!Plan.scenario_id}), and its Monte-Carlo trials and
    seed (0 for an exact plan; their arrays stay short until a plan
    samples, so read them with {!trials} and {!seed}), and the input
    line it was read from (0 for none).  Its points come
    in runs [run.(p) <= t < run.(p + 1)], in sweep order.  A run is one
    [r] and a contiguous ascending n-range: run [t] holds the points
    [(n_lo.(t) + k - off.(t), r.(t))] for [off.(t) <= k < off.(t + 1)],
    so an [ns=1:512] sweep is one run and an r-sweep one run per [r].
    Results sit at the points' offsets: [value.(k)] (the exact value or
    the Monte-Carlo mean), [ci_lo.(k)] and [ci_hi.(k)] (empty unless a
    plan samples), and [evals.(p)], as in {!Answer.t}.  Arrays grow by
    doubling, so only their first [plans], [runs] or [points] entries
    mean anything. *)

type t = private {
  mutable plans : int;
  mutable quantity : Query.quantity array;
  mutable route : Plan.route array;
  mutable scenario_id : int array;
  mutable trials : int array;
  mutable seed : int array;
  mutable line : int array;
  mutable run : int array;
  mutable runs : int;
  mutable n_lo : int array;
  mutable r : float array;
  mutable off : int array;
  mutable points : int;
  mutable value : float array;
  mutable ci_lo : float array;
  mutable ci_hi : float array;
  mutable evals : int array;
  wall_ns : int64 array;  (** per route, at {!Plan.route_index} *)
}

val scenario : t -> int -> Zeroconf.Params.t
val trials : t -> int -> int
val seed : t -> int -> int

val first_point : t -> int -> int
(** The offset of a plan's first point: its points are
    [first_point b p <= k < first_point b (p + 1)]. *)

val create : plans:int -> runs:int -> t
(** An empty batch with room for [plans] plans and [runs] runs. *)

val add_plan :
  t -> Query.quantity -> int -> Plan.route -> trials:int -> seed:int ->
  line:int -> unit
(** [add_plan b quantity sid route ~trials ~seed ~line] opens a plan on
    the scenario interned as [sid], read from input line [line] (0 for
    none); the runs added next are its own. *)

val add_run : t -> lo:int -> hi:int -> float array -> int -> unit
(** [add_run b ~lo ~hi rs i] adds the run of the points [(lo, rs.(i))]
    to [(hi, rs.(i))] to the last plan (a point is a run of one, an
    r-sweep a run per r): r is read out of an array, so passing it
    boxes nothing. *)

val validate_last : t -> Zeroconf.Params.t -> sampled:bool -> unit
(** {!Query.validate_runs} on the last plan, added with this
    scenario. *)

val add_plan_with_run :
  t -> Query.quantity -> int -> Plan.route -> trials:int -> seed:int ->
  line:int -> lo:int -> hi:int -> float array -> int -> Zeroconf.Params.t ->
  sampled:bool -> unit
(** [add_plan], [add_run] and [validate_last] of a plan of one run (a
    point or an n-sweep), in one call: the batch front end's per-line
    path. *)

val max_n : t -> int -> int
(** A plan's largest probe count. *)

val prepare : t -> unit
(** Size the result arrays to the complete batch. *)

val refuse : t -> int -> string -> 'a
(** [refuse b p msg] raises [Invalid_argument msg] for plan [p], after
    [line N: ] when the plan has an input line. *)

val set_wall : t -> Plan.route -> int64 -> unit

val of_plans : Plan.t array -> t
(** Plans as a batch, not yet {!prepare}d: the adapter {!Executor} and
    the backends' [eval_batch] use.  Each plan's points are split into
    maximal runs: a point joins the run before it when its [r] has the
    same bits and its [n] is one more. *)

val answers : t -> Plan.t array -> Answer.t array
(** One answer per plan of [of_plans plans], with the plan's points. *)
