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

val backends : (string * (module Backend.S)) list
(** All routes by name: [kernel], [analytic], [dtmc], [mc]. *)

val backend_of_name : string -> (module Backend.S) option
(** Case-insensitive lookup in {!backends}. *)

val plan : ?backend:string -> Query.t -> Plan.t
(** Compile the query: validate, resolve the accuracy demand to a
    concrete route (or force the named [backend]), and intern the
    scenario.  Raises {!Unsupported} when no
    backend qualifies — or when the forced one cannot answer — and
    [Invalid_argument] on a malformed query. *)

val backend_of_route : Plan.route -> (module Backend.S)
(** The backend module serving a resolved route. *)
