type edge = { mutable prob : float; mutable cost : float }

type t = {
  mutable order : string list; (* reversed declaration order *)
  known : (string, int) Hashtbl.t; (* name -> declaration index *)
  edges : (int * int, edge) Hashtbl.t;
}

let create () =
  { order = [];
    known = Hashtbl.create 16;
    edges = Hashtbl.create 16 }

let index t name =
  match Hashtbl.find_opt t.known name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length t.known in
      Hashtbl.add t.known name i;
      t.order <- name :: t.order;
      i

let add_state t name = ignore (index t name)

let add_edge ?(cost = 0.) t ~src ~dst ~prob =
  if prob <= 0. then invalid_arg "Builder.add_edge: prob <= 0";
  let key = (index t src, index t dst) in
  match Hashtbl.find_opt t.edges key with
  | Some e ->
      if e.cost <> cost then
        invalid_arg
          (Printf.sprintf "Builder.add_edge: conflicting costs on %s -> %s" src dst);
      e.prob <- e.prob +. prob
  | None -> Hashtbl.add t.edges key { prob; cost }

let build ?tol t =
  let names = List.rev t.order in
  if names = [] then invalid_arg "Builder.build: no states";
  let space = State_space.of_labels names in
  let n = State_space.size space in
  let p = Array.make n [] and c = Array.make n [] in
  Hashtbl.iter
    (fun (i, j) e ->
      p.(i) <- (j, e.prob) :: p.(i);
      c.(i) <- (j, e.cost) :: c.(i))
    t.edges;
  (* states with no outgoing edge become absorbing *)
  Array.iteri (fun i row -> if row = [] then p.(i) <- [ (i, 1.) ]) p;
  let chain = Chain.create ?tol ~states:space p in
  let reward = Reward.create ~transition_rewards:c chain in
  (chain, reward)
