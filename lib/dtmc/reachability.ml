let check_target chain target =
  if target = [] then invalid_arg "Reachability: empty target set";
  let mask = Array.make (Chain.size chain) false in
  List.iter
    (fun t ->
      if t < 0 || t >= Chain.size chain then
        invalid_arg "Reachability: target index out of range";
      mask.(t) <- true)
    target;
  mask

(* States that reach a [target] state through [via]-states only; the
   target states count as reached.  One backward search. *)
let backward chain ~via ~target =
  let n = Chain.size chain in
  let preds = Array.make n [] in
  for i = n - 1 downto 0 do
    Array.iter (fun j -> preds.(j) <- i :: preds.(j)) (fst (Chain.successors chain i))
  done;
  let reached = Array.make n false in
  let rec dfs j =
    List.iter
      (fun i ->
        if via.(i) && not reached.(i) then begin
          reached.(i) <- true;
          dfs i
        end)
      preds.(j)
  in
  Array.iteri
    (fun j t ->
      if t && not reached.(j) then begin
        reached.(j) <- true;
        dfs j
      end)
    target;
  reached

(* The probability-0 and probability-1 sets of [phi U psi]. *)
let qualitative chain ~phi ~psi =
  let via = Array.map2 (fun p q -> p && not q) phi psi in
  let zero = Array.map not (backward chain ~via ~target:psi) in
  let reaches_zero = backward chain ~via ~target:zero in
  (zero, Array.map2 (fun q r -> q || not r) psi reaches_zero)

let until chain ~phi ~psi =
  let zero, one = qualitative chain ~phi ~psi in
  let unknown = Array.map2 (fun z o -> not (z || o)) zero one in
  let b =
    Array.init (Chain.size chain) (fun i ->
        let cols, probs = Chain.successors chain i in
        Numerics.Safe_float.sum
          (Array.mapi (fun e j -> if one.(j) then probs.(e) else 0.) cols))
  in
  let x = Sparse.solve ~unknown ~row:(Chain.successors chain) b in
  Array.mapi
    (fun i o ->
      if o then 1.
      else if unknown.(i) then Numerics.Safe_float.clamp_probability x.(i)
      else 0.)
    one

let bounded_until chain ~phi ~psi ~k =
  if k < 0 then invalid_arg "Reachability.bounded_until: negative bound";
  let v = ref (Array.map (fun q -> if q then 1. else 0.) psi) in
  for _ = 1 to k do
    let prev = !v in
    v :=
      Array.init (Chain.size chain) (fun i ->
          if psi.(i) then 1.
          else if phi.(i) then
            let cols, probs = Chain.successors chain i in
            Numerics.Safe_float.sum (Array.mapi (fun e j -> probs.(e) *. prev.(j)) cols)
          else 0.)
  done;
  !v

let never chain ~target =
  let psi = check_target chain target in
  Array.map not (backward chain ~via:(Array.map not psi) ~target:psi)
