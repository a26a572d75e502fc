let print_string = Stdlib.print_string

let prerr_line s =
  Stdlib.prerr_endline s
