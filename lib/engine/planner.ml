exception Unsupported of string

let backends : (string * (module Backend.S)) list =
  [ ("kernel", (module Backends.Kernel));
    ("analytic", (module Backends.Analytic));
    ("dtmc", (module Backends.Dtmc));
    ("mc", (module Backends.Mc)) ]

let backend_of_name name =
  List.assoc_opt (String.lowercase_ascii name) backends

(* cheapest first: the kernel's streaming cursors beat the per-point
   closed forms, which beat building and solving the DRM chain *)
let exact_order : (Plan.route * (module Backend.S)) list =
  [ (Plan.Kernel, (module Backends.Kernel));
    (Plan.Analytic, (module Backends.Analytic));
    (Plan.Dtmc, (module Backends.Dtmc)) ]

let sampled_order : (Plan.route * (module Backend.S)) list =
  [ (Plan.Mc, (module Backends.Mc)) ]

let rec first_supporting (q : Query.t) = function
  | [] ->
      raise (Unsupported (Format.asprintf "no backend supports: %a" Query.pp q))
  | (route, (module B : Backend.S)) :: rest ->
      if B.supports q then route else first_supporting q rest

let route (q : Query.t) =
  Query.validate q;
  first_supporting q
    (match q.accuracy with
    | Query.Sampled _ -> sampled_order
    | Query.Exact -> exact_order)

let forced_route name (q : Query.t) =
  match Plan.route_of_name name with
  | None -> raise (Unsupported (Printf.sprintf "unknown backend %s" name))
  | Some route ->
      let (module B : Backend.S) =
        match backend_of_name name with
        | Some b -> b
        | None -> assert false (* route names and backend names coincide *)
      in
      if not (B.supports q) then
        raise
          (Unsupported (Format.asprintf "%s cannot answer: %a" B.name Query.pp q));
      route

let plan ?backend (q : Query.t) =
  let r = match backend with None -> route q | Some name -> forced_route name q in
  Plan.make ~route:r q

let backend_of_route (r : Plan.route) : (module Backend.S) =
  match r with
  | Plan.Kernel -> (module Backends.Kernel)
  | Plan.Analytic -> (module Backends.Analytic)
  | Plan.Dtmc -> (module Backends.Dtmc)
  | Plan.Mc -> (module Backends.Mc)
