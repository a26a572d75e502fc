(* Sparse chain rows from a dense row-major table, zero entries
   dropped: the literal tables in the DTMC tests stay readable. *)
let of_dense table =
  Array.map
    (fun row ->
      List.filter (fun (_, v) -> v <> 0.)
        (List.mapi (fun j v -> (j, v)) (Array.to_list row)))
    table
