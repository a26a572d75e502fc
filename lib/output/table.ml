type align = Left | Right

type t = {
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reversed *)
}

let create ~columns =
  if columns = [] then invalid_arg "Table.create: no columns";
  { headers = List.map fst columns; aligns = List.map snd columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: column count mismatch";
  t.rows <- cells :: t.rows

let column_widths t =
  let rows = t.headers :: List.rev t.rows in
  List.mapi
    (fun i _ ->
      List.fold_left (fun acc row -> max acc (String.length (List.nth row i))) 0 rows)
    t.headers

let pad align width s =
  let fill = String.make (max 0 (width - String.length s)) ' ' in
  match align with Left -> s ^ fill | Right -> fill ^ s

let to_text t =
  let widths = column_widths t in
  let render_row cells =
    String.concat "  "
      (List.map2 (fun (w, a) c -> pad a w c) (List.combine widths t.aligns) cells)
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n"
    (render_row t.headers :: sep :: List.map render_row (List.rev t.rows))
  ^ "\n"
