type t = {
  title : string;
  x_label : string;
  y_label : string;
  x_ticks : string array;
  y_ticks : string array;
  values : float array array;
}

let validate t =
  let rows = Array.length t.values in
  if rows = 0 then invalid_arg "Heatmap.save: no rows";
  let cols = Array.length t.values.(0) in
  if cols = 0 then invalid_arg "Heatmap.save: empty rows";
  Array.iter
    (fun row ->
      if Array.length row <> cols then invalid_arg "Heatmap.save: ragged data")
    t.values;
  if Array.length t.x_ticks <> cols then
    invalid_arg "Heatmap.save: x_ticks/columns mismatch";
  if Array.length t.y_ticks <> rows then
    invalid_arg "Heatmap.save: y_ticks/rows mismatch";
  (rows, cols)

(* light yellow -> red colour ramp *)
let colour frac =
  let frac = Numerics.Safe_float.clamp ~lo:0. ~hi:1. frac in
  let red = 255 in
  let green = int_of_float (235. -. (190. *. frac)) in
  let blue = int_of_float (205. *. (1. -. frac)) in
  Printf.sprintf "#%02x%02x%02x" red green blue

let width = 720
let height = 480

let render t =
  let rows, cols = validate t in
  let svg = Svg.create ~width ~height in
  let ml = 80. and mr = 40. and mt = 40. and mb = 60. in
  let plot_w = float_of_int width -. ml -. mr in
  let plot_h = float_of_int height -. mt -. mb in
  let cell_w = plot_w /. float_of_int cols in
  let cell_h = plot_h /. float_of_int rows in
  let lo = ref infinity and hi = ref neg_infinity in
  Array.iter
    (Array.iter (fun v ->
         if Float.is_finite v then begin
           lo := Float.min !lo v;
           hi := Float.max !hi v
         end))
    t.values;
  let lo = !lo and hi = !hi in
  if lo > hi then invalid_arg "Heatmap.save: no finite values";
  let span = if hi > lo then hi -. lo else 1. in
  for row = 0 to rows - 1 do
    for col = 0 to cols - 1 do
      let v = t.values.(row).(col) in
      let fill =
        if Float.is_finite v then colour ((v -. lo) /. span) else "#bbbbbb"
      in
      let x = ml +. (float_of_int col *. cell_w) in
      (* row 0 at the bottom *)
      let y = mt +. plot_h -. (float_of_int (row + 1) *. cell_h) in
      Svg.rect svg ~fill ~stroke:"#ffffff" (x, y) (cell_w, cell_h)
    done
  done;
  (* tick labels: thin to at most ~12 along x *)
  let x_stride = max 1 (cols / 12) in
  Array.iteri
    (fun col label ->
      if col mod x_stride = 0 then
        Svg.text svg ~anchor:"middle" ~size:10
          ~x:(ml +. ((float_of_int col +. 0.5) *. cell_w))
          ~y:(mt +. plot_h +. 14.) label)
    t.x_ticks;
  Array.iteri
    (fun row label ->
      Svg.text svg ~anchor:"end" ~size:10 ~x:(ml -. 6.)
        ~y:(mt +. plot_h -. ((float_of_int row +. 0.5) *. cell_h) +. 4.)
        label)
    t.y_ticks;
  Svg.text svg ~size:14 ~anchor:"middle" ~x:(ml +. (plot_w /. 2.)) ~y:(mt -. 12.)
    t.title;
  Svg.text svg ~anchor:"middle" ~x:(ml +. (plot_w /. 2.))
    ~y:(float_of_int height -. 12.) t.x_label;
  Svg.text svg ~anchor:"middle" ~x:18. ~y:(mt +. (plot_h /. 2.)) t.y_label;
  (* colour legend *)
  Svg.text svg ~size:10 ~x:(ml +. plot_w -. 160.) ~y:(mt -. 12.)
    (Printf.sprintf "min %.3g" lo);
  Svg.rect svg ~fill:(colour 0.) (ml +. plot_w -. 110., mt -. 22.) (18., 12.);
  Svg.rect svg ~fill:(colour 1.) (ml +. plot_w -. 88., mt -. 22.) (18., 12.);
  Svg.text svg ~size:10 ~x:(ml +. plot_w -. 62.) ~y:(mt -. 12.)
    (Printf.sprintf "max %.3g" hi);
  svg

let save t path = Svg.save (render t) path
