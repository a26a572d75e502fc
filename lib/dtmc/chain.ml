type t = { labels : string array; rows : (int array * float array) array }

let tol = 1e-9

let create ~labels rows =
  let n = Array.length labels in
  if n = 0 then invalid_arg "Chain.create: no states";
  let seen = Hashtbl.create n in
  Array.iter
    (fun l ->
      if l = "" then invalid_arg "Chain.create: empty label";
      if Hashtbl.mem seen l then invalid_arg ("Chain.create: duplicate label " ^ l);
      Hashtbl.add seen l ())
    labels;
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
        (Printf.sprintf "Chain.create: row %d (%s) sums to %.12g" i labels.(i)
           !row_sum);
    let kept =
      List.filter_map
        (fun (j, v) ->
          let p = Float.max 0. v /. !row_sum in
          if p > 0. then Some (j, p) else None)
        entries
    in
    (Array.of_list (List.map fst kept), Array.of_list (List.map snd kept))
  in
  { labels = Array.copy labels; rows = Array.mapi normalize rows }

let size t = Array.length t.labels

let label t i =
  if i < 0 || i >= Array.length t.labels then
    invalid_arg "Chain.label: index out of range";
  t.labels.(i)

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

let is_absorbing t i = prob t i i = 1.

let absorbing_states t =
  List.filter (is_absorbing t) (List.init (size t) Fun.id)
