exception Unsupported of string

let backend_of_route (r : Plan.route) : (module Backend.S) =
  match r with
  | Plan.Kernel -> (module Backends.Kernel)
  | Plan.Analytic -> (module Backends.Analytic)
  | Plan.Dtmc -> (module Backends.Dtmc)
  | Plan.Mc -> (module Backends.Mc)

let backend_of_name name = Option.map backend_of_route (Plan.route_of_name name)

(* the route's own module, named: no first-class module to unpack *)
let serves route quantity ~sampled ~max_n =
  match (route : Plan.route) with
  | Plan.Kernel ->
      Backends.Kernel.serves quantity ~sampled && max_n <= Backends.Kernel.max_n
  | Plan.Analytic ->
      Backends.Analytic.serves quantity ~sampled
      && max_n <= Backends.Analytic.max_n
  | Plan.Dtmc ->
      Backends.Dtmc.serves quantity ~sampled && max_n <= Backends.Dtmc.max_n
  | Plan.Mc -> Backends.Mc.serves quantity ~sampled && max_n <= Backends.Mc.max_n

(* cheapest first: the kernel's streaming cursors beat the per-point
   closed forms, which beat building and solving the DRM chain *)
let route quantity ~sampled ~max_n =
  if sampled then
    if serves Plan.Mc quantity ~sampled ~max_n then Some Plan.Mc else None
  else if serves Plan.Kernel quantity ~sampled ~max_n then Some Plan.Kernel
  else if serves Plan.Analytic quantity ~sampled ~max_n then Some Plan.Analytic
  else if serves Plan.Dtmc quantity ~sampled ~max_n then Some Plan.Dtmc
  else None

let plan ?backend (q : Query.t) =
  let sampled =
    match q.accuracy with Query.Sampled _ -> true | Query.Exact -> false
  and max_n =
    match q.domain with
    | Query.Point { n; _ } | Query.R_sweep { n; _ } -> n
    | Query.N_sweep { ns; _ } -> Array.fold_left max 0 ns
  in
  let r =
    match backend with
    | None -> (
        Query.validate q;
        match route q.quantity ~sampled ~max_n with
        | Some r -> r
        | None ->
            raise
              (Unsupported
                 (Format.asprintf "no backend supports: %a" Query.pp q)))
    | Some name -> (
        match Plan.route_of_name name with
        | None -> raise (Unsupported (Printf.sprintf "unknown backend %s" name))
        | Some r when serves r q.quantity ~sampled ~max_n -> r
        | Some r ->
            raise
              (Unsupported
                 (Format.asprintf "%s cannot answer: %a" (Plan.route_name r)
                    Query.pp q)))
  in
  Plan.make ~route:r q
