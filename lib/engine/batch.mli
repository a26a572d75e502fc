(** A batch of plans as one struct of arrays: what the executor and
    every backend evaluate.

    Plan [p] ([0 <= p < plans]) keeps its quantity, route and interned
    scenario id ({!Plan.scenario_id}), and its Monte-Carlo trials and
    seed (0 for an exact plan; their arrays stay short until a plan
    samples, so read them with {!trials} and {!seed}).  Its points are
    [(n.(k), r.(k))] for [off.(p) <= k < off.(p + 1)], in sweep order,
    in one flat int array and one flat float array.  Results sit at the
    same offsets: [value.(k)] (the exact value or the Monte-Carlo
    mean), [ci_lo.(k)] and [ci_hi.(k)] (empty unless a plan samples),
    and [evals.(p)], as in {!Answer.t}.  Arrays grow by doubling, so
    only their first [plans] or [points] entries mean anything. *)

type t = private {
  mutable plans : int;
  mutable quantity : Query.quantity array;
  mutable route : Plan.route array;
  mutable scenario_id : int array;
  mutable trials : int array;
  mutable seed : int array;
  mutable off : int array;
  mutable points : int;
  mutable n : int array;
  mutable r : float array;
  mutable value : float array;
  mutable ci_lo : float array;
  mutable ci_hi : float array;
  mutable evals : int array;
  wall_ns : int64 array;  (** per route, in {!Plan.route} order *)
}

val scenario : t -> int -> Zeroconf.Params.t
val trials : t -> int -> int
val seed : t -> int -> int

val create : ?plans:int -> ?points:int -> unit -> t
(** An empty batch with room for [plans] plans and [points] points. *)

val add_plan :
  t -> Query.quantity -> int -> Plan.route -> trials:int -> seed:int -> unit
(** [add_plan b quantity sid route ~trials ~seed] opens a plan on the
    scenario interned as [sid]; the points added next are its own. *)

val add_n_sweep : t -> lo:int -> hi:int -> float array -> int -> unit
(** [add_n_sweep b ~lo ~hi rs i] adds the points [(lo, rs.(i))] to
    [(hi, rs.(i))]: r is read out of an array, so passing it boxes
    nothing. *)

val add_r_sweep : t -> int -> float array -> unit
(** [add_r_sweep b n rs] adds [(n, r)] for every [r] of [rs]. *)

val validate_last : t -> Zeroconf.Params.t -> sampled:bool -> unit
(** {!Query.validate_columns} on the last plan, added with this
    scenario. *)

val max_n : t -> int -> int
(** A plan's largest probe count. *)

val prepare : t -> unit
(** Size the result arrays to the complete batch. *)

val set_wall : t -> Plan.route -> int64 -> unit

val of_plans : Plan.t array -> t
(** Plans as a batch, not yet {!prepare}d: the adapter {!Executor} and
    the backends' [eval_batch] use. *)

val answers : t -> Plan.t array -> Answer.t array
(** One answer per plan of [of_plans plans], with the plan's points. *)
