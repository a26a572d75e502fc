(* The whole file is composed in one block of its own and written at
   once. *)
module N = Num_text

let write_field blk pos field =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') field then begin
    let pos = ref (N.write_char blk pos '"') in
    String.iter
      (fun c ->
        if c = '"' then pos := N.write_char blk !pos '"';
        pos := N.write_char blk !pos c)
      field;
    N.write_char blk !pos '"'
  end
  else N.write_string blk pos field

let write_row blk pos row =
  let pos = ref pos in
  List.iteri
    (fun i field ->
      if i > 0 then pos := N.write_char blk !pos ',';
      pos := write_field blk !pos field)
    row;
  N.write_char blk !pos '\n'

let save path blk len =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output oc blk.N.bytes 0 len)

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
      let blk = N.block 4096 in
      let pos = ref (write_row blk 0 (x_label :: List.map fst series)) in
      (* numeric cells never need quoting: they go straight in *)
      let cell = N.write_general ~digits:9 in
      Array.iteri
        (fun i x ->
          pos := cell blk !pos x;
          List.iter
            (fun (_, pts) ->
              pos := cell blk (N.write_char blk !pos ',') (snd pts.(i)))
            series;
          pos := N.write_char blk !pos '\n')
        xs;
      save path blk !pos
