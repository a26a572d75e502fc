type t = { component : int array; count : int }

(* Iterative Tarjan (explicit stack, so deep chains don't blow the call
   stack). *)
let tarjan_adjacency ~size:n ~successors =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let component = Array.make n (-1) in
  let next_index = ref 0 in
  let count = ref 0 in
  let strongconnect v =
    (* frames: (vertex, remaining successors) *)
    let frames = ref [ (v, ref (successors v)) ] in
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    while !frames <> [] do
      match !frames with
      | [] -> ()
      | (u, rest) :: parent_frames -> (
          match !rest with
          | w :: tl ->
              rest := tl;
              if index.(w) = -1 then begin
                index.(w) <- !next_index;
                lowlink.(w) <- !next_index;
                incr next_index;
                stack := w :: !stack;
                on_stack.(w) <- true;
                frames := (w, ref (successors w)) :: !frames
              end
              else if on_stack.(w) then
                lowlink.(u) <- min lowlink.(u) index.(w)
          | [] ->
              (* u is finished: maybe the root of a component *)
              if lowlink.(u) = index.(u) then begin
                let rec pop () =
                  match !stack with
                  | [] -> ()
                  | w :: rest_stack ->
                      stack := rest_stack;
                      on_stack.(w) <- false;
                      component.(w) <- !count;
                      if w <> u then pop ()
                in
                pop ();
                incr count
              end;
              frames := parent_frames;
              (match parent_frames with
              | (parent, _) :: _ ->
                  lowlink.(parent) <- min lowlink.(parent) lowlink.(u)
              | [] -> ()))
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  { component; count = !count }

let tarjan chain =
  tarjan_adjacency ~size:(Chain.size chain) ~successors:(fun i ->
      List.map fst (Chain.successors chain i))

let members t id =
  let out = ref [] in
  for i = Array.length t.component - 1 downto 0 do
    if t.component.(i) = id then out := i :: !out
  done;
  !out

let is_bottom chain t id =
  let states = members t id in
  List.for_all
    (fun s ->
      List.for_all (fun (j, _) -> t.component.(j) = id) (Chain.successors chain s))
    states

let bottom_components chain =
  let t = tarjan chain in
  List.filter_map
    (fun id -> if is_bottom chain t id then Some (members t id) else None)
    (List.init t.count Fun.id)

let is_irreducible chain = (tarjan chain).count = 1
