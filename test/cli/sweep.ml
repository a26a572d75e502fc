(* The command-line boundary sweep: run every zeroconf_cli subcommand
   with each of its numeric options set to each of six boundary values,
   one process at a time under a kill timeout, and check that a bad
   value fails with a message, never with a wrong number:

   - the exit code is 0 or 124 (cmdliner's command-line error), never
     125 (an uncaught exception) or a signal;
   - no run times out;
   - no run that exits 0 prints "nan", or "inf" as a word;
   - no run is refused as an unknown option (the tables below name only
     options the command takes);
   - when stderr names the swept option, stdout is empty (the value was
     refused before anything was printed).

   Options are written --long=VALUE: with a space, cmdliner reads -1 as
   an unknown option, and -n=-1 as the value "=-1".  --jobs is swept on
   a one-point kernel query only, which never fans out, so even a
   broken job-count check starts no domain.

   Failures whose cause lies in the library, on values every option
   accepts, are listed in [known] with their reason.  A listed case
   must still fail: one that passes is reported as stale, so the table
   shrinks as those are fixed.  Cases that do not finish are not run.
   Runs that print an infinity on purpose are listed in [infinite]
   with their reason; a listed case that no longer prints one is stale
   too.

   The sweep runs in two shards, one process each, so that two cores
   share it: shard 1 sweeps [maintenance], whose two largest periods
   alone take about 7 s to be refused, and shard 2 every other
   command and the job caps.  Each shard checks the [known] rows of
   its own commands only.

   usage: sweep.exe ZEROCONF_CLI SHARD   (SHARD is 1 or 2) *)

let values = [ "0"; "-1"; "nan"; "inf"; "1e308"; "4611686018427387903" ]

(* seconds before a run is killed; a run that passes takes well under
   one *)
let timeout = 10.

(* A swept option: its long name, and how the value sits in the
   argument (most take it whole; a pair or triple takes it in one
   slot). *)
type option = { long : string; form : string -> string }

let opt long = { long; form = Fun.id }
let slot long form = { long; form }

(* the groups of scenario overrides, as the commands take them *)
let loss = [ opt "--loss" ]
let reply = List.map opt [ "--lambda"; "--delay" ]
let hosts = [ opt "--hosts" ]
let costs = List.map opt [ "--probe-cost"; "--error-cost" ]
let scenario_options = loss @ reply @ hosts @ costs

let n = opt "--n-probes"
let r = opt "--r-period"

(* A command: the name the tables use, its fixed arguments (options in
   [base] are dropped while they are swept themselves), and the options
   swept on it. *)
type command = {
  name : string;
  args : string list;
  base : (string * string) list;
  options : option list;
}

let cmd ?(args = []) ?(base = []) ?(scenario = scenario_options) name options =
  let words = String.split_on_char ' ' name in
  { name; args = words @ args; base; options = scenario @ options }

(* The commands of shard 1; shard 2 takes the rest. *)
let shard_one = [ "maintenance" ]

let commands ~delays =
  [ cmd "cost" [ n; r ];
    cmd "optimal-r" [ n ];
    cmd "optimal-n" [ r ];
    cmd "assess" [ opt "--draft-n"; opt "--draft-r" ];
    cmd "nu" [];
    cmd "calibrate" ~scenario:(loss @ reply @ hosts) [ n; r ];
    cmd "simulate" ~scenario:(loss @ reply @ costs)
      [ n; r; opt "--trials"; opt "--seed"; opt "--sim-hosts"; opt "--pool" ];
    cmd "curve" [ n; opt "--points"; opt "--r-max" ];
    cmd "latency" [ n; r ];
    cmd "refine" ~scenario:(loss @ reply @ costs)
      [ n; r; opt "--occupied"; opt "--pool" ];
    cmd "pareto" [];
    cmd "maintenance" ~base:[ ("--trials", "2") ] ~scenario:loss
      [ n; r; opt "--trials"; opt "--seed" ];
    cmd "export" [ n; r ];
    cmd "workload" ~scenario:[]
      [ n; r; opt "--count"; opt "--horizon"; opt "--initial"; opt "--pool";
        opt "--seed" ];
    cmd "workload --pattern poisson" ~scenario:[]
      [ opt "--arrival-rate"; opt "--horizon" ];
    cmd "workload --pattern periodic" ~scenario:[]
      [ opt "--arrival-rate"; opt "--horizon" ];
    cmd "adaptive" ~scenario:(loss @ reply @ costs)
      [ opt "--occupied"; opt "--pool";
        slot "--rate-limit" (fun v -> v ^ ",60");
        slot "--rate-limit" (fun v -> "10," ^ v) ];
    cmd "report" [ opt "--draft-n"; opt "--draft-r" ];
    (* fit refuses --loss with a message: cmdliner would read it as
       --losses *)
    cmd "fit" ~args:[ delays ] ~scenario:(loss @ costs)
      [ opt "--losses"; opt "--fit-hosts" ];
    cmd "check" ~args:[ "P>0.99 [ F ok ]" ] [ n; r ];
    cmd "query"
      [ n; r; opt "--jobs"; opt "--sweep-n";
        slot "--sweep-r" (fun v -> v ^ ",2,5");
        slot "--sweep-r" (fun v -> "0," ^ v ^ ",5");
        slot "--sweep-r" (fun v -> "0,2," ^ v) ];
    cmd "query --backend mc" ~scenario:[]
      [ n; r; opt "--trials"; opt "--seed" ];
    cmd "crosscheck" [ n; r; opt "--trials"; opt "--seed" ] ]

(* A failure that lives in the library, on a value the option's domain
   admits: command, the swept option as written (--long=FORM with V for
   the value), value, what the run does, why, and whether it
   finishes. *)
type known = {
  k_command : string;
  k_option : string;
  k_value : string;
  outcome : string;
  reason : string;
  finishes : bool;
}

let known : known list = []

(* An exit-0 run that prints an infinity on purpose: command, option as
   written, value and why the infinity is the right answer. *)
type infinite = {
  i_command : string;
  i_option : string;
  i_value : string;
  why : string;
}

let infinite : infinite list =
  let echoed command =
    { i_command = command;
      i_option = "--lambda=V";
      i_value = "inf";
      why =
        "the scenario line echoes F_X's name, shifted-exp(d=1, rate=inf, \
         l=1): an infinite rate is the legal deterministic-delay limit" }
  and no_host command what =
    { i_command = command;
      i_option = "--hosts=V";
      i_value = "0";
      why = "with no host E is exactly 0, and " ^ what ^ " is its log10, -inf" }
  in
  [ echoed "cost";
    no_host "cost" "log10 E";
    no_host "curve" "the log10 E(n,r) column";
    no_host "pareto" "the log10 error column";
    echoed "report" ]

(* Job counts just past OCaml's 128 domains: the checks above let them
   through if the cap is lost, so each must be refused outright (exit
   124, nothing on stdout).  They go to a one-point kernel query, which
   never fans out, so even a lost cap starts no domain. *)
let past_cap = [ ([], [ "query"; "--jobs=129" ]); ([ "ZEROCONF_JOBS=129" ], [ "query" ]) ]

(* -- running one case ---------------------------------------------- *)

let environment =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"ZEROCONF_JOBS=" kv))
       (Array.to_list (Unix.environment ())))

let read_file path = In_channel.with_open_bin path In_channel.input_all

type outcome = Exited of int | Signalled of int | Timed_out

(* Run [argv] with stdout and stderr in files; the timer kills it at
   [timeout]. *)
let run ?(env = []) exe argv ~out ~err =
  let fd path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let out_fd = fd out and err_fd = fd err in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: argv))
      (Array.append environment (Array.of_list env))
      Unix.stdin out_fd err_fd
  in
  Unix.close out_fd;
  Unix.close err_fd;
  let timed_out = ref false in
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         timed_out := true;
         Unix.kill pid Sys.sigkill));
  ignore (Unix.setitimer Unix.ITIMER_REAL { it_interval = 0.; it_value = timeout });
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  ignore (Unix.setitimer Unix.ITIMER_REAL { it_interval = 0.; it_value = 0. });
  match status with
  | _ when !timed_out -> Timed_out
  | Unix.WEXITED code -> Exited code
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Signalled s

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* whether [s] has "inf" or "infinity" as a word (a maximal run of
   letters), as a printed infinity reads: "-inf", "1e-inf", "infinity" *)
let prints_inf s =
  let is_letter = function 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false in
  let n = String.length s in
  let rec scan i =
    if i >= n then false
    else if not (is_letter s.[i]) then scan (i + 1)
    else
      let j = ref i in
      while !j < n && is_letter s.[!j] do incr j done;
      match String.lowercase_ascii (String.sub s i (!j - i)) with
      | "inf" | "infinity" -> true
      | _ -> scan !j
  in
  scan 0

(* What is wrong with a run, or [None]; an infinity at exit 0 is wrong
   unless [inf_ok]. *)
let fault ~long ~inf_ok outcome ~stdout ~stderr =
  match outcome with
  | Timed_out -> Some (Printf.sprintf "no exit within %gs" timeout)
  | Signalled s -> Some (Printf.sprintf "killed by signal %d" s)
  | Exited code when code <> 0 && code <> 124 ->
      Some (Printf.sprintf "exit %d: %s" code (String.trim stderr))
  | Exited _ when contains stderr "unknown option" ->
      Some (List.hd (String.split_on_char '\n' stderr))
  | Exited 0 when contains stdout "nan" -> Some "exit 0 printing nan"
  | Exited 0 when prints_inf stdout && not inf_ok -> Some "exit 0 printing inf"
  | Exited _ when contains stderr ("'" ^ long ^ "'") && stdout <> "" ->
      Some "refused after printing"
  | Exited _ -> None

let () =
  match Sys.argv with
  | [| _; exe; ("1" | "2" as shard) |] ->
      let mine name = List.mem name shard_one = (shard = "1") in
      let known = List.filter (fun k -> mine k.k_command) known
      and infinite = List.filter (fun i -> mine i.i_command) infinite
      and past_cap = if shard = "2" then past_cap else [] in
      let dir = Filename.temp_dir "sweep" "" in
      let delays = Filename.concat dir "delays.txt" in
      Out_channel.with_open_text delays (fun oc ->
          output_string oc "0.11\n0.12\n0.15\n0.13\n0.2\n");
      let out = Filename.concat dir "out" and err = Filename.concat dir "err" in
      let failures = ref [] and seen = Hashtbl.create 64
      and inf_seen = Hashtbl.create 64 in
      let runs = ref 0 in
      List.iter
        (fun c ->
          List.iter
            (fun o ->
              List.iter
                (fun v ->
                  let arg = o.long ^ "=" ^ o.form v in
                  let written = o.long ^ "=" ^ o.form "V" in
                  let entry =
                    List.find_opt
                      (fun k ->
                        k.k_command = c.name && k.k_option = written
                        && k.k_value = v)
                      known
                  in
                  match entry with
                  | Some k when not k.finishes -> Hashtbl.replace seen k ()
                  | _ -> (
                      let base =
                        List.concat_map
                          (fun (b, bv) -> if b = o.long then [] else [ b; bv ])
                          c.base
                      in
                      incr runs;
                      let outcome = run exe (c.args @ base @ [ arg ]) ~out ~err in
                      let stdout = read_file out and stderr = read_file err in
                      let case = Printf.sprintf "%s %s" c.name arg in
                      let inf_ok =
                        List.find_opt
                          (fun i ->
                            i.i_command = c.name && i.i_option = written
                            && i.i_value = v)
                          infinite
                      in
                      (match inf_ok with
                      | Some i when outcome = Exited 0 && prints_inf stdout ->
                          Hashtbl.replace inf_seen i ()
                      | _ -> ());
                      match
                        ( fault ~long:o.long ~inf_ok:(inf_ok <> None) outcome
                            ~stdout ~stderr,
                          entry )
                      with
                      | Some why, None ->
                          failures := Printf.sprintf "%s: %s" case why :: !failures
                      | Some _, Some k -> Hashtbl.replace seen k ()
                      | None, Some _ ->
                          failures :=
                            Printf.sprintf
                              "%s: passes now; remove its known-failure entry"
                              case
                            :: !failures
                      | None, None -> ()))
                values)
            c.options)
        (List.filter (fun c -> mine c.name) (commands ~delays));
      List.iter
        (fun (env, argv) ->
          incr runs;
          let outcome = run ~env exe argv ~out ~err in
          if outcome <> Exited 124 || read_file out <> "" then
            failures :=
              Printf.sprintf "%s: not refused" (String.concat " " (env @ argv))
              :: !failures)
        past_cap;
      List.iter
        (fun k ->
          if not (Hashtbl.mem seen k) then
            failures :=
              Printf.sprintf "known failure %s %s %s matches no case"
                k.k_command k.k_option k.k_value
              :: !failures)
        known;
      List.iter
        (fun i ->
          if not (Hashtbl.mem inf_seen i) then
            failures :=
              Printf.sprintf
                "infinity %s %s %s: no infinity printed at exit 0; remove \
                 its entry"
                i.i_command i.i_option i.i_value
              :: !failures)
        infinite;
      List.iter Sys.remove [ delays; out; err ];
      Sys.rmdir dir;
      if !failures <> [] then begin
        List.iter prerr_endline (List.rev !failures);
        Printf.eprintf "%d of %d runs failed the sweep\n" (List.length !failures)
          !runs;
        exit 1
      end
  | _ ->
      prerr_endline "usage: sweep.exe ZEROCONF_CLI SHARD   (SHARD is 1 or 2)";
      exit 2
