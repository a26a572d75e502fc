(* the canvas, in characters *)
let width = 72 and height = 20

let plot ~x_axis ~y_axis ~title series =
  let finite (x, y) = Float.is_finite x && Float.is_finite y in
  if not (List.exists (fun (_, pts) -> Array.exists finite pts) series) then
    invalid_arg "Ascii_chart.plot: no finite points";
  (* [Axis.project]'s expression and clamp, in place *)
  let x_lo = Axis.lo x_axis and x_hi = Axis.hi x_axis
  and y_lo = Axis.lo y_axis and y_hi = Axis.hi y_axis in
  let clamp f = if f < 0. then 0. else if f > 1. then 1. else f in
  let canvas = Bytes.make (height * width) ' ' in
  List.iteri
    (fun idx (_, pts) ->
      let mark = Char.chr (Char.code 'a' + (idx mod 26)) in
      for i = 0 to Array.length pts - 1 do
        let x, y = pts.(i) in
        if Float.is_finite y && x >= x_lo && x <= x_hi && y >= y_lo && y <= y_hi
        then begin
          let col =
            min (width - 1)
              (int_of_float
                 (clamp ((x -. x_lo) /. (x_hi -. x_lo))
                 *. float_of_int (width - 1)))
          and row =
            min (height - 1)
              (int_of_float
                 ((1. -. clamp ((y -. y_lo) /. (y_hi -. y_lo)))
                 *. float_of_int (height - 1)))
          in
          Bytes.set canvas ((row * width) + col) mark
        end
      done)
    series;
  let buf = Buffer.create ((width + 16) * (height + 4)) in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let y_lo_label = Printf.sprintf "%.3g" y_lo in
  let y_hi_label = Printf.sprintf "%.3g" y_hi in
  let label_width = max (String.length y_lo_label) (String.length y_hi_label) in
  for row = 0 to height - 1 do
    let label =
      if row = 0 then y_hi_label
      else if row = height - 1 then y_lo_label
      else ""
    in
    Printf.bprintf buf "%*s |" label_width label;
    Buffer.add_subbytes buf canvas (row * width) width;
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf (String.make (label_width + 2) ' ');
  Buffer.add_string buf (String.make width '-');
  Buffer.add_char buf '\n';
  Printf.bprintf buf "%*s  %-10.4g%*s%10.4g\n" label_width "" x_lo
    (max 1 (width - 20))
    "" x_hi;
  List.iteri
    (fun idx (label, _) ->
      Printf.bprintf buf "  %c = %s\n"
        (Char.chr (Char.code 'a' + (idx mod 26)))
        label)
    series;
  Buffer.contents buf
