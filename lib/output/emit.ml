let print_string = Stdlib.print_string
