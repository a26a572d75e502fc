(** The compiled, executable form of a {!Query}.

    The engine runs as a two-stage pipeline — compile, execute — and a
    plan is the hand-off between stages.  {!Planner.plan} compiles a
    query into a plan: validated, its domain flattened to concrete
    [(n, r)] points, its scenario interned, and its accuracy resolved
    to a concrete {!route}.  The {!Executor} then dispatches plans
    (singly or in batches) to backends.  A plan keeps the query's
    quantity, scenario and accuracy, not the query: the domain's shape
    is compiled into [points].

    A plan is pure data: building one performs no evaluation. *)

type route = Kernel | Analytic | Dtmc | Mc
(** The concrete evaluation strategy the planner resolved to.  Kept as
    a variant (not a backend module) so plans stay first-class data the
    backends themselves can consume in [eval_batch]. *)

val route_name : route -> string
(** Stable lower-case identifier, matching {!Backend.S.name} of the
    corresponding backend ([kernel], [analytic], [dtmc], [mc]). *)

val route_of_name : string -> route option

val route_index : route -> int
(** The route's place in the order [Kernel], [Analytic], [Dtmc], [Mc]:
    0 .. 3, the index per-route arrays and bit sets use. *)

type t = private {
  quantity : Query.quantity;
  scenario : Zeroconf.Params.t;
  accuracy : Query.accuracy;  (** The query's three, untouched. *)
  route : route;          (** Where the executor will send it. *)
  scenario_id : int;      (** Interning id: plans with equal ids share
                              one physical scenario, which is what
                              batch execution groups on. *)
  points : (int * float) array;
      (** The domain flattened to [(n, r)] pairs, in sweep order —
          {!Query.points} of the query. *)
}

val make : route:route -> Query.t -> t
(** Compile [query] to run on [route].  Re-validates the query (so
    plans built from hand-assembled records are still safe) and
    interns the scenario.  Pure: no evaluation happens.
    Prefer {!Planner.plan}, which picks the route for you. *)

val scenario_id : Zeroconf.Params.t -> int
(** Intern a scenario directly.  Physically equal scenarios map to the
    same id and distinct values never do: scenarios hold closures, so
    physical identity is the only exact equality available. *)

val scenario_of_id : int -> Zeroconf.Params.t
(** The scenario an id was given to. *)

val key : t -> string
(** The structural key, built on each call (nothing in the engine reads
    it; {!Cache} indexes by it): quantity, route, interned scenario id,
    every point (written as the point, n-sweep or r-sweep it came from),
    and the accuracy demand.  Ints are written in
    decimal and floats as the 16 hex digits of their IEEE bits, so no
    precision is lost and [-0.] and [0.] differ; no [Printf] is
    involved.  Two queries that would produce bitwise identical
    answers through the same route compile to equal keys; anything
    that could change a single output bit — including the route, since
    a forced backend may answer differently — changes the key. *)
