let linspace a b n =
  if n < 1 then invalid_arg "Grid.linspace: n < 1";
  if n = 1 then
    if a = b then [| a |] else invalid_arg "Grid.linspace: n = 1 with a <> b"
  else
    let h = (b -. a) /. float_of_int (n - 1) in
    let xs = Array.create_float n (* a loop boxes no point *) in
    for i = 0 to n - 1 do
      xs.(i) <- (if i = n - 1 then b else a +. (float_of_int i *. h))
    done;
    xs

let map_sweep f xs = Array.map (fun x -> (x, f x)) xs

let chunks k xs =
  if k < 1 then invalid_arg "Grid.chunks: k < 1";
  let n = Array.length xs in
  let count = min k n in
  if count = 0 then [||]
  else
    (* the first [n mod count] chunks carry one extra element, so
       lengths differ by at most one and every element appears once *)
    let base = n / count and extra = n mod count in
    let start = ref 0 in
    Array.init count (fun i ->
        let len = base + if i < extra then 1 else 0 in
        let chunk = Array.sub xs !start len in
        start := !start + len;
        chunk)
