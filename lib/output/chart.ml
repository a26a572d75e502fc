type series = { label : string; points : (float * float) array }

let series ~label points = { label; points }

type t = {
  title : string;
  x_label : string;
  y_label : string;
  x_axis : Axis.t;
  y_axis : Axis.t;
  series : series list;
}

let palette =
  [| "#1f77b4"; "#d62728"; "#2ca02c"; "#9467bd"; "#ff7f0e"; "#8c564b";
     "#e377c2"; "#17becf"; "#bcbd22"; "#7f7f7f" |]

let width = 720
let height = 480

let render t =
  let svg = Svg.create ~width ~height in
  let ml = 70. and mr = 150. and mt = 40. and mb = 55. in
  let plot_w = float_of_int width -. ml -. mr in
  let plot_h = float_of_int height -. mt -. mb in
  let px v = ml +. (Axis.project t.x_axis v *. plot_w) in
  let py v = mt +. plot_h -. (Axis.project t.y_axis v *. plot_h) in
  (* frame and gridlines *)
  Svg.rect svg ~stroke:"#888" (ml, mt) (plot_w, plot_h);
  List.iter
    (fun (v, lbl) ->
      let x = px v in
      Svg.line svg ~stroke:"#ddd" (x, mt) (x, mt +. plot_h);
      Svg.text svg ~anchor:"middle" ~x ~y:(mt +. plot_h +. 16.) lbl)
    (Axis.ticks t.x_axis);
  List.iter
    (fun (v, lbl) ->
      let y = py v in
      Svg.line svg ~stroke:"#ddd" (ml, y) (ml +. plot_w, y);
      Svg.text svg ~anchor:"end" ~x:(ml -. 6.) ~y:(y +. 4.) lbl)
    (Axis.ticks t.y_axis);
  (* series, clipped to the frame by breaking the polyline: each
     segment's points are projected in place, [Axis.project]'s
     expression and clamp, into arrays that every series reuses *)
  let x_lo = Axis.lo t.x_axis and x_hi = Axis.hi t.x_axis
  and y_lo = Axis.lo t.y_axis and y_hi = Axis.hi t.y_axis in
  let clamp f = if f < 0. then 0. else if f > 1. then 1. else f in
  let longest =
    List.fold_left (fun m s -> max m (Array.length s.points)) 0 t.series
  in
  let xs = Array.create_float longest and ys = Array.create_float longest in
  List.iteri
    (fun idx s ->
      let colour = palette.(idx mod Array.length palette) in
      let len = ref 0 in
      for i = 0 to Array.length s.points - 1 do
        let x, y = s.points.(i) in
        if Float.is_finite y && x >= x_lo && x <= x_hi && y >= y_lo && y <= y_hi
        then begin
          xs.(!len) <- ml +. (clamp ((x -. x_lo) /. (x_hi -. x_lo)) *. plot_w);
          ys.(!len) <-
            mt +. plot_h -. (clamp ((y -. y_lo) /. (y_hi -. y_lo)) *. plot_h);
          incr len
        end
        else begin
          Svg.polyline svg ~stroke:colour xs ys !len;
          len := 0
        end
      done;
      Svg.polyline svg ~stroke:colour xs ys !len;
      (* legend entry *)
      let ly = mt +. 10. +. (float_of_int idx *. 18.) in
      let lx = ml +. plot_w +. 12. in
      Svg.line svg ~stroke:colour ~stroke_width:2. (lx, ly) (lx +. 24., ly);
      Svg.text svg ~x:(lx +. 30.) ~y:(ly +. 4.) s.label)
    t.series;
  (* titles *)
  Svg.text svg ~size:14 ~anchor:"middle"
    ~x:(ml +. (plot_w /. 2.)) ~y:(mt -. 14.) t.title;
  Svg.text svg ~anchor:"middle" ~x:(ml +. (plot_w /. 2.))
    ~y:(float_of_int height -. 14.) t.x_label;
  Svg.text svg ~anchor:"middle" ~x:16. ~y:(mt +. (plot_h /. 2.))
    t.y_label;
  svg

let save t path = Svg.save (render t) path
