(* Shared plumbing for the zeroconf executables: --jobs/-j/ZEROCONF_JOBS
   and the sweep-size check.

   The jobs option is folded into every subcommand's term; the default
   pins jobs = 1 (serial) unless ZEROCONF_JOBS is set, keeping the
   golden CLI and figure outputs byte-identical — parallel results are
   bit-identical anyway, this just avoids spawning domains nobody asked
   for. *)

let jobs_term =
  Cmdliner.Arg.(
    value & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains for the Monte-Carlo, DTMC and analytic \
              routes (default: $(b,ZEROCONF_JOBS) if set, else 1).")

(* [with_jobs jobs k] validates and applies the worker count, then runs
   [k]; returns a [`Error] for cmdliner's [Term.ret] on a bad count,
   from the flag or from a malformed ZEROCONF_JOBS. *)
let with_jobs jobs k =
  match jobs with
  | Some jobs when jobs < 1 ->
      `Error
        (false, Printf.sprintf "option '--jobs': %d is not a positive integer" jobs)
  | Some jobs ->
      Exec.Pool.set_jobs jobs;
      k ()
  | None -> (
      match Exec.Pool.env_jobs () with
      | Error msg -> `Error (false, msg)
      | Ok None ->
          Exec.Pool.set_jobs 1;
          k ()
      | Ok (Some _) -> k ())

(* A grid size taken from the user is checked against the query
   engine's bound before the grid is allocated, so a huge size fails
   with this message instead of exhausting memory. *)
let check_size what k =
  if k > Engine.Query.max_points then
    invalid_arg
      (Printf.sprintf "%s: more than %d points" what Engine.Query.max_points)
