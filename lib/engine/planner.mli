(** The compile stage: query in, plan out.

    Route selection picks the cheapest backend that meets the accuracy
    demand.  [Exact] demands try, in order, {!Backends.Kernel} (O(1)
    amortized per point), then {!Backends.Analytic} (covers latency),
    then {!Backends.Dtmc} (covers the cost variance).  [Sampled] demands route to
    {!Backends.Mc}.  The first backend whose [supports] accepts the
    query wins.

    Planning is pure: it validates and routes — no backend runs.  Execution belongs to the {!Executor}. *)

exception Unsupported of string
(** No backend (or the named backend) can answer the query. *)

val backend_of_name : string -> (module Backend.S) option
(** The backend of a route name ({!Plan.route_of_name}: [kernel],
    [analytic], [dtmc], [mc], any case). *)

val plan : ?backend:string -> Query.t -> Plan.t
(** Compile the query: validate, resolve the accuracy demand to a
    concrete route (or force the named [backend]), and intern the
    scenario.  Raises {!Unsupported} when no
    backend qualifies — or when the forced one cannot answer — and
    [Invalid_argument] on a malformed query. *)

val backend_of_route : Plan.route -> (module Backend.S)
(** The backend module serving a resolved route. *)

val serves :
  Plan.route -> Query.quantity -> sampled:bool -> max_n:int -> bool
(** {!Backend.S.supports} on a query's parts, [max_n] its largest probe
    count. *)

val route : Query.quantity -> sampled:bool -> max_n:int -> Plan.route option
(** The route {!plan} picks for such a query unforced, if any. *)
