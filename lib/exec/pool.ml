(* OCaml 5.1 runs at most 128 domains (Max_domains in caml/domain.h) *)
let max_jobs = 128

let jobs_error jobs =
  if jobs < 1 then Some "is not a positive integer"
  else if jobs > max_jobs then
    Some (Printf.sprintf "is more than %d jobs" max_jobs)
  else None

let requested_jobs = ref 1

let set_jobs jobs =
  if jobs < 1 then invalid_arg "Pool.set_jobs: jobs < 1";
  if jobs > max_jobs then invalid_arg "Pool.set_jobs: jobs > max_jobs";
  requested_jobs := jobs

let jobs () = !requested_jobs
