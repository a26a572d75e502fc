exception Singular

(* Row [k] of [Q] over the unknowns not yet eliminated: the self-loop
   weight, the other entries (local indices, in arrival order, the
   first [len] slots used) and the right-hand side. *)
type row = {
  mutable loop : float;
  mutable cols : int array;
  mutable vals : float array;
  mutable len : int;
  mutable rhs : float;
}

let position r j =
  let rec go e = if e = r.len || r.cols.(e) = j then e else go (e + 1) in
  go 0

(* Adds [v] to entry [j]; true when the entry is new. *)
let add r j v =
  let e = position r j in
  if e < r.len then begin
    r.vals.(e) <- r.vals.(e) +. v;
    false
  end
  else begin
    if r.len = Array.length r.cols then begin
      r.cols <- Array.append r.cols (Array.make (r.len + 2) 0);
      r.vals <- Array.append r.vals (Array.make (r.len + 2) 0.)
    end;
    r.cols.(r.len) <- j;
    r.vals.(r.len) <- v;
    r.len <- r.len + 1;
    true
  end

(* Removes entry [j], which must be present, and returns its weight. *)
let remove r j =
  let e = position r j in
  let v = r.vals.(e) in
  r.len <- r.len - 1;
  r.cols.(e) <- r.cols.(r.len);
  r.vals.(e) <- r.vals.(r.len);
  v

(* A binary min-heap of int keys. *)
type heap = { mutable keys : int array; mutable size : int }

let push h key =
  if h.size = Array.length h.keys then
    h.keys <- Array.append h.keys (Array.make (h.size + 1) 0);
  let rec up k =
    let parent = (k - 1) / 2 in
    if k > 0 && h.keys.(parent) > key then begin
      h.keys.(k) <- h.keys.(parent);
      up parent
    end
    else h.keys.(k) <- key
  in
  up h.size;
  h.size <- h.size + 1

let pop h =
  let top = h.keys.(0) in
  h.size <- h.size - 1;
  let last = h.keys.(h.size) in
  let rec down k =
    let c = (2 * k) + 1 in
    let c = if c + 1 < h.size && h.keys.(c + 1) < h.keys.(c) then c + 1 else c in
    if c < h.size && h.keys.(c) < last then begin
      h.keys.(k) <- h.keys.(c);
      down c
    end
    else h.keys.(k) <- last
  in
  if h.size > 0 then down 0;
  top

let solve ~unknown ~row b =
  let n = Array.length unknown in
  if Array.length b <> n then invalid_arg "Sparse.solve: b does not match the states";
  let states = Array.of_list (List.filter (Array.get unknown) (List.init n Fun.id)) in
  let m = Array.length states in
  let local = Array.make n (-1) in
  Array.iteri (fun k i -> local.(i) <- k) states;
  let rows =
    Array.map
      (fun i ->
        let width = Array.length (fst (row i)) in
        { loop = 0.; cols = Array.make width 0; vals = Array.make width 0.; len = 0;
          rhs = b.(i) })
      states
  in
  (* the rows using each column, eliminated ones included, and how many
     live rows do *)
  let col_rows = Array.make m [] and col_len = Array.make m 0 in
  let use i j =
    col_rows.(j) <- i :: col_rows.(j);
    col_len.(j) <- col_len.(j) + 1
  in
  Array.iteri
    (fun k i ->
      let cols, weights = row i in
      Array.iteri
        (fun e j ->
          let l = local.(j) in
          if l = k then rows.(k).loop <- rows.(k).loop +. weights.(e)
          else if l >= 0 && add rows.(k) l weights.(e) then use k l)
        cols)
    states;
  (* Markowitz cost first, index second; capped so the key fits an int *)
  let cap = (max_int / (m + 1)) - 1 in
  let key k = (min cap (rows.(k).len * col_len.(k)) * m) + k in
  let heap = { keys = Array.make m 0; size = 0 } in
  for k = 0 to m - 1 do
    push heap (key k)
  done;
  let eliminated = Array.make m false in
  let order = Array.make m 0 and pivot = Array.make m 0. in
  (* a popped key is stale once its unknown is gone or its cost moved *)
  let rec next () =
    let top = pop heap in
    let k = top mod m in
    if eliminated.(k) || top <> key k then next () else k
  in
  for step = 0 to m - 1 do
    let k = next () in
    let rk = rows.(k) in
    let d = 1. -. rk.loop in
    if not (d > 0.) then raise Singular;
    eliminated.(k) <- true;
    order.(step) <- k;
    pivot.(k) <- d;
    for e = 0 to rk.len - 1 do
      col_len.(rk.cols.(e)) <- col_len.(rk.cols.(e)) - 1
    done;
    (* substitute x_k = (b_k + sum_j q_kj x_j) / d into each live row
       that uses it *)
    List.iter
      (fun i ->
        if not eliminated.(i) then begin
          let ri = rows.(i) in
          let f = remove ri k /. d in
          ri.rhs <- ri.rhs +. (f *. rk.rhs);
          for e = 0 to rk.len - 1 do
            let j = rk.cols.(e) and v = f *. rk.vals.(e) in
            if j = i then ri.loop <- ri.loop +. v else if add ri j v then use i j
          done;
          push heap (key i)
        end)
      col_rows.(k);
    for e = 0 to rk.len - 1 do
      push heap (key rk.cols.(e))
    done
  done;
  (* an eliminated row only uses unknowns eliminated after it *)
  let x = Array.make m 0. in
  for step = m - 1 downto 0 do
    let k = order.(step) in
    let rk = rows.(k) in
    let s = ref rk.rhs in
    for e = 0 to rk.len - 1 do
      s := !s +. (rk.vals.(e) *. x.(rk.cols.(e)))
    done;
    x.(k) <- !s /. pivot.(k)
  done;
  let out = Array.make n 0. in
  Array.iteri (fun k i -> out.(i) <- x.(k)) states;
  out
