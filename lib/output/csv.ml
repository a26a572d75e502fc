let add_field b field =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') field then begin
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_char b '"';
        Buffer.add_char b c)
      field;
    Buffer.add_char b '"'
  end
  else Buffer.add_string b field

let add_row b row =
  List.iteri
    (fun i field ->
      if i > 0 then Buffer.add_char b ',';
      add_field b field)
    row;
  Buffer.add_char b '\n'

(* the whole file is built in memory and written at once *)
let save path b =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc b)

let write_series ~path ~x_label series =
  match series with
  | [] -> invalid_arg "Csv.write_series: no series"
  | (_, first) :: rest ->
      let xs = Array.map fst first in
      List.iter
        (fun (_, pts) ->
          if
            Array.length pts <> Array.length xs
            || not
                 (Array.for_all2
                    (fun (x, _) x' -> Numerics.Safe_float.approx_eq x x')
                    pts xs)
          then invalid_arg "Csv.write_series: mismatched grids")
        rest;
      let b = Buffer.create 4096 in
      add_row b (x_label :: List.map fst series);
      (* numeric cells never need quoting: they go straight in *)
      let cell = Num_text.add_general ~digits:9 in
      Array.iteri
        (fun i x ->
          cell b x;
          List.iter
            (fun (_, pts) ->
              Buffer.add_char b ',';
              cell b (snd pts.(i)))
            series;
          Buffer.add_char b '\n')
        xs;
      save path b
