(* Shared plumbing for the zeroconf executables: one cmdliner converter
   per option domain, and --jobs/-j/ZEROCONF_JOBS.

   A value outside its option's domain fails in cmdliner's parse (exit
   124, the option named) before any command runs.  Constraints between
   options are the library validators' to check, once per command. *)

open Cmdliner

(* [checked ~docv base why] reads a value with [base] and refuses it
   when [why] gives a reason; cmdliner prefixes the option's name. *)
let checked ~docv base why =
  let parse text =
    match Arg.conv_parser base text with
    | Error _ as e -> e
    | Ok v -> ( match why v with None -> Ok v | Some msg -> Error (`Msg msg))
  in
  Arg.conv ~docv (parse, Arg.conv_printer base)

let ints = checked ~docv:"INT" Arg.int
let floats = checked ~docv:"NUM" Arg.float
let fail fmt = Printf.ksprintf Option.some fmt

let positive_upto limit what k =
  if k < 1 then fail "%d is not a positive integer" k
  else if k > limit then fail "%d is more than %d %s" k limit what
  else None

let probe_count = ints (positive_upto Engine.Query.max_points "probes")
let grid_size = ints (positive_upto Engine.Query.max_points "points")

(* a grid needs both of its ends *)
let curve_points =
  ints (function
    | 1 -> fail "1 is fewer than 2 points"
    | k -> positive_upto Engine.Query.max_points "points" k)

(* a run keeps one sample slot per trial: the bound keeps a huge count
   from exhausting memory *)
let trials = ints (positive_upto Engine.Query.max_trials "trials")
let jobs = ints (fun k -> Option.map (Printf.sprintf "%d %s" k) (Exec.Pool.jobs_error k))
let seed = Arg.int
let space = Zeroconf.Params.address_space_size
let hosts =
  ints (fun m -> if m >= 0 && m < space then None else fail "%d outside [0, %d)" m space)
let pool_size = ints (positive_upto space "addresses")
let count = ints (fun k -> if k >= 0 then None else fail "%d is negative" k)

let finite_above lo what =
  floats (fun x -> if Float.is_finite x && x > lo then None else fail "%g is not a %s" x what)

(* listening periods, delays and costs *)
let duration =
  floats (fun x ->
      if Float.is_finite x && x >= 0. then None
      else fail "%g is not a non-negative finite number" x)

let positive = finite_above 0. "positive finite number"

(* the curve's grid runs from 0.01 up *)
let r_max = finite_above 0.01 "finite number above 0.01"
let rate = floats (fun x -> if x > 0. then None else fail "%g outside (0, inf]" x)
let probability =
  floats (fun x -> if x >= 0. && x < 1. then None else fail "%g outside [0, 1)" x)

(* ZEROCONF_JOBS, parsed: [Ok None] when unset, [Ok (Some jobs)] for a
   job count (surrounding blanks allowed), [Error message] otherwise. *)
let env_jobs () =
  match Sys.getenv_opt "ZEROCONF_JOBS" with
  | None -> Ok None
  | Some text -> (
      let refuse why =
        Error
          (Printf.sprintf "environment variable 'ZEROCONF_JOBS': '%s' %s" text
             why)
      in
      match int_of_string_opt (String.trim text) with
      | None -> refuse "is not a positive integer"
      | Some jobs -> (
          match Exec.Pool.jobs_error jobs with
          | None -> Ok (Some jobs)
          | Some why -> refuse why))

(* --jobs, on the commands whose routes fan out over domains: the count
   from the flag, else from ZEROCONF_JOBS, else 1, so that no domain is
   spawned unless asked for. *)
let jobs_term =
  let apply jobs =
    match (jobs, env_jobs ()) with
    | Some jobs, _ | None, Ok (Some jobs) -> `Ok (Exec.Pool.set_jobs jobs)
    | None, Ok None -> `Ok (Exec.Pool.set_jobs 1)
    | None, Error msg -> `Error (false, msg)
  in
  let doc =
    "Worker domains for the Monte-Carlo, DTMC and analytic routes, at most \
     128 (default: $(b,ZEROCONF_JOBS) if set, else 1)."
  in
  Term.(ret (const apply
             $ Arg.(value & opt (some jobs) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)))

(* [validated f] is [f ()], or the library's refusal of the options'
   combination as a command-line error. *)
let validated f =
  match f () with v -> `Ok v | exception Invalid_argument msg -> `Error (false, msg)
