let to_dot ~costs ~highlight chain =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph chain {\n";
  Buffer.add_string buf "  rankdir=LR;\n";
  Buffer.add_string buf "  node [shape=circle, fontsize=11];\n";
  for i = 0 to Chain.size chain - 1 do
    let shape = if List.mem i highlight then ", peripheries=2" else "" in
    Buffer.add_string buf
      (Printf.sprintf "  s%d [label=\"%s\"%s];\n" i (Chain.label chain i)
         shape)
  done;
  for i = 0 to Chain.size chain - 1 do
    let cols, probs = Chain.successors chain i in
    Array.iteri
      (fun e j ->
        let p = probs.(e) in
        if not (Chain.is_absorbing chain i) || i <> j then begin
          let cost = Reward.transition costs i j in
          let cost_label = if cost <> 0. then Printf.sprintf " / %g" cost else "" in
          Buffer.add_string buf
            (Printf.sprintf "  s%d -> s%d [label=\"%g%s\"];\n" i j p cost_label)
        end)
      cols
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_tra chain =
  let buf = Buffer.create 1024 in
  let n = Chain.size chain in
  let count = ref 0 in
  for i = 0 to n - 1 do
    count := !count + Array.length (fst (Chain.successors chain i))
  done;
  Buffer.add_string buf (Printf.sprintf "%d %d\n" n !count);
  for i = 0 to n - 1 do
    let cols, probs = Chain.successors chain i in
    Array.iteri
      (fun e j -> Buffer.add_string buf (Printf.sprintf "%d %d %.17g\n" i j probs.(e)))
      cols
  done;
  Buffer.contents buf
