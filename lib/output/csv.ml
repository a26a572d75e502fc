let quote field =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') field then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' field) ^ "\""
  else field

let write ~path ~header rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let emit row =
        output_string oc (String.concat "," (List.map quote row));
        output_char oc '\n'
      in
      emit header;
      List.iter
        (fun row ->
          if List.length row <> List.length header then
            invalid_arg "Csv.write: row width mismatch";
          emit row)
        rows)

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
      let header = x_label :: List.map fst series in
      let cell = Num_text.general ~digits:9 in
      let rows =
        Array.to_list
          (Array.mapi
             (fun i x ->
               cell x :: List.map (fun (_, pts) -> cell (snd pts.(i))) series)
             xs)
      in
      write ~path ~header rows
