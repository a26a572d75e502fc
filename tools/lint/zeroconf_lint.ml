(* zeroconf-lint: repo-specific invariant checker.

   Usage: zeroconf-lint [--json] [--allow FILE] [PATH ...]

   Scans every .ml/.mli under the given paths (default: lib bin bench
   perfbench, resolved from the current directory, which must be the
   repo root), applies the R1-R6 and R8-R10 rule catalogue from
   [Rules], subtracts the reviewed exceptions in the allowlist, and
   exits 1 when any new finding remains or any allowlist entry matches
   nothing.  R1-R5 apply to lib, bin and bench, R10 ([Gc.quick_stat])
   to bench; perfbench is read only as a caller for R6, which flags
   every lib module no bin/ executable reaches and every [val] of a lib
   .mli that no module other than its own names, and for R9, which
   flags every optional argument of such a [val] that no module other
   than its own passes, or that every such use passes as [~x].  R8
   flags every bin/ module that names
   [Zeroconf.{Cost, Reliability, Kernel}].  test/ and
   examples/ are no callers: a path under them adds nothing, so passing
   one cannot keep a value or an option alive.
   [--json] emits a machine-readable report on stdout. *)

open Lint_core

let usage = "zeroconf-lint [--json] [--allow FILE] [PATH ...]"

let () =
  let json = ref false in
  let allow_file = ref "" in
  let paths = ref [] in
  let spec =
    [ ("--json", Arg.Set json, " emit findings as JSON");
      ( "--allow",
        Arg.Set_string allow_file,
        "FILE reviewed-exception list (sexp)" ) ]
  in
  Arg.parse (Arg.align spec) (fun p -> paths := p :: !paths) usage;
  let roots =
    match List.rev !paths with
    | [] -> [ "lib"; "bin"; "bench"; "perfbench" ]
    | ps -> ps
  in
  let missing = List.filter (fun r -> not (Sys.file_exists r)) roots in
  if missing <> [] then begin
    prerr_endline
      ("zeroconf-lint: no such path: " ^ String.concat ", " missing
     ^ " (run from the repo root)");
    exit 2
  end;
  let allow =
    if !allow_file = "" then []
    else
      try Allowlist.load !allow_file
      with Allowlist.Malformed msg ->
        prerr_endline ("zeroconf-lint: bad allowlist: " ^ msg);
        exit 2
  in
  let files = Rules.collect roots in
  let v = Allowlist.verdict allow (Rules.lint_files files) in
  let { Allowlist.fresh; waived; stale } = v in
  if !json then begin
    let items = List.map Finding.to_json fresh in
    Printf.printf
      "{\"findings\":[%s],\"files_scanned\":%d,\"waived\":%d,\"stale_allow_entries\":%d}\n"
      (String.concat "," items) (List.length files) waived (List.length stale)
  end
  else begin
    List.iter (fun f -> print_endline (Finding.to_human f)) fresh;
    List.iter
      (fun (e : Allowlist.entry) ->
        Printf.eprintf
          "zeroconf-lint: stale allow entry (%s %s %s) matched nothing — \
           delete it\n"
          e.rule e.file e.ident)
      stale;
    Printf.printf "zeroconf-lint: %d file(s), %d finding(s), %d waived\n"
      (List.length files) (List.length fresh) waived
  end;
  exit (Allowlist.exit_code v)
