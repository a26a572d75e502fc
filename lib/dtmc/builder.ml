module Matrix = Numerics.Matrix

type edge = { mutable prob : float; mutable cost : float }

type t = {
  mutable order : string list; (* reversed declaration order *)
  known : (string, unit) Hashtbl.t;
  edges : (string * string, edge) Hashtbl.t;
}

let create () =
  { order = [];
    known = Hashtbl.create 16;
    edges = Hashtbl.create 16 }

let add_state t name =
  if not (Hashtbl.mem t.known name) then begin
    Hashtbl.add t.known name ();
    t.order <- name :: t.order
  end

let add_edge ?(cost = 0.) t ~src ~dst ~prob =
  if prob <= 0. then invalid_arg "Builder.add_edge: prob <= 0";
  add_state t src;
  add_state t dst;
  match Hashtbl.find_opt t.edges (src, dst) with
  | Some e ->
      if e.cost <> cost then
        invalid_arg
          (Printf.sprintf "Builder.add_edge: conflicting costs on %s -> %s" src dst);
      e.prob <- e.prob +. prob
  | None -> Hashtbl.add t.edges (src, dst) { prob; cost }

let build ?tol t =
  let names = List.rev t.order in
  if names = [] then invalid_arg "Builder.build: no states";
  let space = State_space.of_labels names in
  let n = State_space.size space in
  let p = Matrix.create ~rows:n ~cols:n in
  let c = Matrix.create ~rows:n ~cols:n in
  Hashtbl.iter
    (fun (src, dst) e ->
      let i = State_space.index space src and j = State_space.index space dst in
      Matrix.set p i j e.prob;
      Matrix.set c i j e.cost)
    t.edges;
  (* states with no outgoing edge become absorbing *)
  for i = 0 to n - 1 do
    if Numerics.Safe_float.sum (Matrix.row p i) = 0. then Matrix.set p i i 1.
  done;
  let chain = Chain.create ?tol ~states:space p in
  let reward = Reward.create ~transition_rewards:c chain in
  (chain, reward)
