type design = { n : int; r : float; cost : float; log10_error : float }

let enumerate ?(n_max = 12) ?(r_points = 200) ?(r_max = 8.)
    (p : Zeroconf.Params.t) =
  if n_max < 1 then invalid_arg "Tradeoff.enumerate: n_max < 1";
  let grid = Numerics.Grid.linspace (r_max /. float_of_int r_points) r_max r_points in
  (* one batch: a cost and an error plan per r-column, each the n-sweep
     1 .. n_max, so the kernel backend merges each column's two onto
     ONE forward cursor (cursor state is independent of where reads
     happen) and the columns match the historical single-cursor
     enumeration bit for bit; the designs come out n-major *)
  let v =
    Executor.n_sweeps [| Query.Mean_cost; Query.Log10_error |] p ~lo:1
      ~hi:n_max grid
  and errors = Array.length grid * n_max in
  List.concat_map
    (fun n ->
      Array.to_list
        (Array.mapi
           (fun j r ->
             let k = (j * n_max) + n - 1 in
             { n; r; cost = v.(k); log10_error = v.(errors + k) })
           grid))
    (List.init n_max (fun i -> i + 1))

let pareto_front designs =
  (* sort by cost, then sweep keeping the running-best error: a design
     is on the front iff nothing cheaper has error at least as low *)
  let sorted =
    List.sort
      (fun a b ->
        match Float.compare a.cost b.cost with
        | 0 -> Float.compare a.log10_error b.log10_error
        | c -> c)
      designs
  in
  let front = ref [] in
  let best_error = ref infinity in
  List.iter
    (fun d ->
      if d.log10_error < !best_error then begin
        front := d :: !front;
        best_error := d.log10_error
      end)
    sorted;
  List.rev !front

let front ?n_max ?r_points ?r_max p =
  pareto_front (enumerate ?n_max ?r_points ?r_max p)

let knee = function
  | [] | [ _ ] | [ _; _ ] -> None
  | designs ->
      let arr = Array.of_list designs in
      let first = arr.(0) and last = arr.(Array.length arr - 1) in
      let cost_span = Float.max 1e-300 (last.cost -. first.cost) in
      let err_span = Float.max 1e-300 (first.log10_error -. last.log10_error) in
      let norm d =
        ( (d.cost -. first.cost) /. cost_span,
          (d.log10_error -. last.log10_error) /. err_span )
      in
      let x1, y1 = norm first and x2, y2 = norm last in
      let seg_len = Float.hypot (x2 -. x1) (y2 -. y1) in
      let distance d =
        let x0, y0 = norm d in
        Float.abs
          (((y2 -. y1) *. x0) -. ((x2 -. x1) *. y0) +. (x2 *. y1) -. (y2 *. x1))
        /. seg_len
      in
      let best = ref arr.(1) and best_d = ref (distance arr.(1)) in
      Array.iter
        (fun d ->
          let dist = distance d in
          if dist > !best_d then begin
            best := d;
            best_d := dist
          end)
        arr;
      Some !best
