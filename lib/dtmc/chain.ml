type t = { states : State_space.t; rows : (int array * float array) array }

let create ?(tol = 1e-9) ~states rows =
  let n = State_space.size states in
  if Array.length rows <> n then
    invalid_arg "Chain.create: rows do not match state space";
  let normalize i entries =
    let entries = List.sort (fun (a, _) (b, _) -> Int.compare a b) entries in
    let row_sum = ref 0. and previous = ref (-1) in
    List.iter
      (fun (j, v) ->
        if j < 0 || j >= n || j = !previous then
          invalid_arg
            (Printf.sprintf "Chain.create: bad or repeated column at (%d, %d)" i j);
        previous := j;
        if v < -.tol || Float.is_nan v then
          invalid_arg
            (Printf.sprintf "Chain.create: negative probability at (%d, %d)" i j);
        row_sum := !row_sum +. Float.max 0. v)
      entries;
    if Float.abs (!row_sum -. 1.) > tol then
      invalid_arg
        (Printf.sprintf "Chain.create: row %d (%s) sums to %.12g" i
           (State_space.label states i) !row_sum);
    let kept =
      List.filter_map
        (fun (j, v) ->
          let p = Float.max 0. v /. !row_sum in
          if p > 0. then Some (j, p) else None)
        entries
    in
    (Array.of_list (List.map fst kept), Array.of_list (List.map snd kept))
  in
  { states; rows = Array.mapi normalize rows }

let states t = t.states
let size t = State_space.size t.states
let successors t i = t.rows.(i)

let find t i j =
  let cols = fst t.rows.(i) in
  let rec go e =
    if e = Array.length cols then -1 else if cols.(e) = j then e else go (e + 1)
  in
  go 0

let prob t i j =
  let e = find t i j in
  if e < 0 then 0. else (snd t.rows.(i)).(e)

let prob_by_label t a b =
  prob t (State_space.index t.states a) (State_space.index t.states b)

let is_absorbing t i = prob t i i = 1.

let absorbing_states t =
  List.filter (is_absorbing t) (List.init (size t) Fun.id)

let reachable t ~from =
  let n = size t in
  let seen = Array.make n false in
  let rec dfs i =
    if not seen.(i) then begin
      seen.(i) <- true;
      Array.iter dfs (fst t.rows.(i))
    end
  in
  dfs from;
  seen

let transient_states t =
  let absorbing = absorbing_states t in
  List.filter
    (fun i ->
      (not (is_absorbing t i))
      &&
      let r = reachable t ~from:i in
      List.exists (fun a -> r.(a)) absorbing)
    (List.init (size t) Fun.id)

let pp ppf t =
  let n = size t in
  Format.fprintf ppf "@[<v>";
  for i = 0 to n - 1 do
    Format.fprintf ppf "%s ->" (State_space.label t.states i);
    let cols, probs = t.rows.(i) in
    Array.iteri
      (fun e j ->
        Format.fprintf ppf " %s:%g" (State_space.label t.states j) probs.(e))
      cols;
    if i < n - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
