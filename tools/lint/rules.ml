(* The rule catalogue.  Purely syntactic: sources are parsed with the
   compiler's own parser (compiler-libs) and walked with
   [Ast_iterator]; rules match on flattened identifier paths
   ("Random.self_init", "/.", "Domain.DLS.get", ...) plus the
   repo-relative path of the file under scan.

   Known limit: a module alias ([module F = Float]) or a local [let log]
   defeats path matching in both directions.  The codebase does not use
   those spellings for the banned names, and the allowlist is the escape
   hatch if one ever becomes necessary; see DESIGN.md "Static analysis".

   The catalogue:
   - R1 float hygiene: no raw [log]/[exp]/[**]/[/.] in the
     probability-carrying modules — those must spell the operation
     through [Numerics.Safe_float] so every NaN-capable primitive on
     the Eq. 3/4 path has one audit point.
   - R2 determinism: no [Random.*] anywhere (RNG only via
     [Numerics.Rng]); no clock reads outside [bench/]; no
     environment reads under [lib/] (settings reach the library as
     arguments).
   - R3 concurrency containment: [Domain]/[Atomic]/[Mutex]/[Condition]/
     [Thread] only under [lib/exec/].
   - R4 I/O containment: no stdout/stderr writes inside [lib/] except
     [lib/output/].
   - R5 interface discipline: every [lib] module has an [.mli]; no
     [Obj.magic] family anywhere.
   - R6 product callers: every [lib] module is reached, through module
     paths, from some [bin/] source, and every [val] of a [lib] .mli is
     named from some other module of lib/ or of a product root: bin/,
     bench/ or perfbench/.  A test or an example is no caller.
   - R8 one door to Eqs. 3 and 4: no [bin/] module names
     [Zeroconf.Cost], [Zeroconf.Reliability] or [Zeroconf.Kernel], by
     path, open or alias (R6's reference walk); the executables read
     those values through the engine, which validates every point.
     lib/ and examples/ are exempt.
   - R9 no option that changes nothing: every optional argument [?x] of
     a [val] of a [lib] .mli is passed, as [~x] or [?x], at some call
     outside its own module, in lib/ or a product root (R6's reference
     walk and callers), and some such use takes its default: it omits
     [x], forwards [?x] or names the [val] without applying it.  An
     option every product call passes as [~x] is a required argument.
   - R10 exact counts: no [Gc.quick_stat] in [bench/]; in OCaml 5.1 it
     lags the allocation, so a word gate reads [Gc.minor_words] and
     [Gc.counters].

   Sources under [perfbench/] are read for R6 and R9 references only;
   R1-R5, R8 and R10 do not apply to them.  Sources under [test/] and
   [examples/] are read for nothing: R6 and R9 ignore them even when
   they are passed in, so no test or example keeps a value or an option
   alive. *)

(* -- path classification ------------------------------------------- *)

let normalize path =
  let path =
    if String.length path > 2 && String.sub path 0 2 = "./" then
      String.sub path 2 (String.length path - 2)
    else path
  in
  String.concat "/" (String.split_on_char '\\' path)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let in_lib path = starts_with ~prefix:"lib/" path
let in_exec path = starts_with ~prefix:"lib/exec/" path
let in_output path = starts_with ~prefix:"lib/output/" path
let in_bench path = starts_with ~prefix:"bench/" path

(* a test or an example: no rule reads it, and it is no caller *)
let no_caller path =
  starts_with ~prefix:"test/" path || starts_with ~prefix:"examples/" path

let reference_only path = no_caller path || starts_with ~prefix:"perfbench/" path

(* The probability-carrying modules: everything that assembles Eq. 1-4
   quantities (pi_i, Eq. 3 cost, Eq. 4 error probability) out of raw
   floats.  Extend this list as new modules join that path; the
   numerics substrate itself (Safe_float) is the sanctioned home of
   the primitives and is deliberately absent. *)
let probability_modules =
  [ "lib/core/probes.ml";
    "lib/core/cost.ml";
    "lib/core/kernel.ml";
    "lib/core/optimize.ml";
    "lib/core/attempts.ml";
    "lib/core/reliability.ml";
    "lib/core/rare.ml";
    (* the engine pipeline: plans fingerprint survival values, the
       executor routes Eq. 3/4 answers, the cache indexes them — none
       may re-derive probabilities with raw primitives *)
    "lib/engine/plan.ml";
    "lib/engine/executor.ml";
    "lib/engine/cache.ml" ]

let is_probability_module path = List.mem path probability_modules

(* -- banned identifier tables -------------------------------------- *)

let r1_banned =
  [ "log"; "exp"; "log10"; "log1p"; "log2"; "expm1"; "**"; "/.";
    "Float.log"; "Float.exp"; "Float.log10"; "Float.log1p"; "Float.log2";
    "Float.expm1"; "Float.pow"; "Stdlib.log"; "Stdlib.exp"; "Stdlib.log10";
    "Stdlib.expm1"; "Stdlib.**"; "Stdlib./." ]

let r2_clock =
  [ "Unix.gettimeofday"; "Unix.time"; "Sys.time"; "Monotonic_clock.now" ]

let r2_env = [ "Sys.getenv"; "Sys.getenv_opt"; "Unix.getenv"; "Unix.environment" ]

let r3_heads = [ "Domain"; "Atomic"; "Mutex"; "Condition"; "Thread" ]

let r4_banned =
  [ "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_bytes"; "print_int"; "print_float"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "prerr_char"; "prerr_bytes";
    "prerr_int"; "prerr_float"; "stdout"; "stderr"; "Printf.printf";
    "Printf.eprintf"; "Format.printf"; "Format.eprintf";
    "Format.std_formatter"; "Format.err_formatter"; "Stdlib.print_string";
    "Stdlib.print_endline"; "Stdlib.print_newline"; "Stdlib.stdout";
    "Stdlib.stderr"; "Fmt.pr"; "Fmt.epr"; "Fmt.stdout"; "Fmt.stderr" ]

let r5_obj = [ "Obj.magic"; "Obj.repr"; "Obj.obj" ]

(* -- per-identifier checks ----------------------------------------- *)

let head ident =
  match String.index_opt ident '.' with
  | Some i -> String.sub ident 0 i
  | None -> ident

let check_ident ~path ident : (string * string * string) option =
  (* returns (rule, message, hint) *)
  if is_probability_module path && List.mem ident r1_banned then
    Some
      ( "R1",
        Printf.sprintf
          "raw float primitive `%s` in a probability-carrying module" ident,
        "spell it via Numerics.Safe_float.{log,exp,div}" )
  else if head ident = "Random" then
    Some
      ( "R2",
        (if ident = "Random.self_init" then
           "`Random.self_init` makes runs unreplayable"
         else
           Printf.sprintf "`%s` uses the global Random state" ident),
        "draw from a seeded, splittable Numerics.Rng.t threaded from the \
         caller" )
  else if List.mem ident r2_clock && not (in_bench path) then
    Some
      ( "R2",
        Printf.sprintf "clock read `%s` outside bench/" ident,
        "timing belongs in bench/ or behind a reviewed provenance entry in \
         tools/lint/allow.sexp" )
  else if List.mem ident r2_env && in_lib path then
    Some
      ( "R2",
        Printf.sprintf "environment read `%s` inside lib/" ident,
        "read it in the executable and pass the value in as an argument" )
  else if List.mem (head ident) r3_heads && not (in_exec path) then
    Some
      ( "R3",
        Printf.sprintf "`%s` leaks shared-memory concurrency outside \
                        lib/exec" ident,
        "route parallelism through Exec.Pool / Exec.Parallel, or add a \
         reviewed allow.sexp entry" )
  else if in_lib path && (not (in_output path)) && List.mem ident r4_banned
  then
    Some
      ( "R4",
        Printf.sprintf "`%s` writes to the console from inside lib/" ident,
        "return the string and let the executable print it, or log \
         through Logs" )
  else if List.mem ident r5_obj then
    Some
      ( "R5",
        Printf.sprintf "`%s` defeats the type system" ident,
        "restructure the types; Obj is never sanctioned in this repo" )
  else if in_bench path && ident = "Gc.quick_stat" then
    Some
      ( "R10",
        "`Gc.quick_stat` in bench/ lags the allocation it counts",
        "count minor words with Gc.minor_words and major and promoted \
         words with Gc.counters" )
  else None

(* -- AST walk ------------------------------------------------------ *)

let findings_of_structure ~path structure =
  let acc = ref [] in
  let add ~loc ~ident (rule, message, hint) =
    let pos = loc.Location.loc_start in
    acc :=
      Finding.v ~rule ~file:path ~line:pos.Lexing.pos_lnum
        ~col:(pos.Lexing.pos_cnum - pos.Lexing.pos_bol)
        ~ident ~message ~hint
      :: !acc
  in
  let visit_path ~loc txt =
    let ident = String.concat "." (Longident.flatten txt) in
    match check_ident ~path ident with
    | Some hit -> add ~loc ~ident hit
    | None -> ()
  in
  let open Ast_iterator in
  let expr this (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> visit_path ~loc txt
    | Pexp_new { txt; loc } -> visit_path ~loc txt
    | _ -> ());
    default_iterator.expr this e
  in
  let module_expr this (m : Parsetree.module_expr) =
    (match m.pmod_desc with
    | Pmod_ident { txt; loc } -> visit_path ~loc txt
    | _ -> ());
    default_iterator.module_expr this m
  in
  let iterator = { default_iterator with expr; module_expr } in
  iterator.structure iterator structure;
  List.sort Finding.compare !acc

let parse_error_finding ~path exn =
  let message =
    match Location.error_of_exn exn with
    | Some (`Ok _) | Some `Already_displayed -> "source failed to parse"
    | None -> Printexc.to_string exn
  in
  [ Finding.v ~rule:"E0" ~file:path ~line:0 ~col:0 ~ident:"<parse>"
      ~message:("unparsable source: " ^ message)
      ~hint:"fix the syntax error; the lint only certifies what it can parse"
  ]

(* [path] is the repo-relative logical path used for rule scoping;
   [source] is the file contents.  Splitting the two keeps the rules
   testable on synthetic sources. *)
let lint_source ~path source =
  let path = normalize path in
  if Filename.check_suffix path ".mli" || reference_only path then []
  else
    let lexbuf = Lexing.from_string source in
    Location.init lexbuf path;
    match Parse.implementation lexbuf with
    | structure -> findings_of_structure ~path structure
    | exception exn -> parse_error_finding ~path exn

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* -- file discovery and file-level checks -------------------------- *)

let rec collect_files acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left (fun acc e -> collect_files acc (Filename.concat path e)) acc
  else if
    Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then normalize path :: acc
  else acc

let collect roots =
  List.rev (List.fold_left collect_files [] roots) |> List.sort String.compare

(* R5, file level: every module under lib/ carries an interface. *)
let missing_mli_findings files =
  let files = List.map normalize files in
  List.filter_map
    (fun f ->
      if
        in_lib f
        && Filename.check_suffix f ".ml"
        && not (List.mem (f ^ "i") files)
      then
        Some
          (Finding.v ~rule:"R5" ~file:f ~line:0 ~col:0 ~ident:"<missing-mli>"
             ~message:"lib module without an .mli interface"
             ~hint:"add an .mli; lib surfaces are sealed by interface")
      else None)
    files

(* -- R6, tree level: product callers for lib modules and values ----- *)

(* The module paths an implementation mentions (values, constructors,
   fields, types, module expressions and types), the paths it opens,
   and each use of a named value as (path, labels passed): an
   application passes its [~x] and [?x] labels, an unapplied reference
   none.
   An open counts for the whole file: over-approximating what a file
   reaches can hide an unreached module, never invent one.  A path
   through a module alias ([module R = W.M], [let module R = W.M in])
   is read as the aliased path.  A source that does not parse mentions
   nothing; E0 reports it. *)
let module_paths ~path source =
  let paths = ref [] and opens = ref [] and aliases = ref []
  and calls = ref [] in
  let expand = function
    | m :: rest when List.mem_assoc m !aliases -> List.assoc m !aliases @ rest
    | p -> p
  in
  let add { Location.txt; _ } =
    paths := expand (Longident.flatten txt) :: !paths
  in
  let alias name (m : Parsetree.module_expr) =
    match (name, m.pmod_desc) with
    | Some name, Pmod_ident { txt; _ } ->
        aliases := (name, expand (Longident.flatten txt)) :: !aliases
    | _ -> ()
  in
  let open Ast_iterator in
  let expr this (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident l | Pexp_construct (l, _) | Pexp_field (_, l)
    | Pexp_setfield (_, l, _) ->
        add l
    | Pexp_record (fields, _) -> List.iter (fun (l, _) -> add l) fields
    | Pexp_letmodule ({ txt; _ }, m, _) -> alias txt m
    | _ -> ());
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident l; _ }, args) ->
        add l;
        calls :=
          ( expand (Longident.flatten l.txt),
            List.filter (fun a -> a <> Asttypes.Nolabel) (List.map fst args) )
          :: !calls;
        List.iter (fun (_, a) -> this.expr this a) args
    | Pexp_ident { txt; _ } ->
        (* an unapplied reference takes every default *)
        calls := (expand (Longident.flatten txt), []) :: !calls
    | _ -> default_iterator.expr this e
  in
  let pat this (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_construct (l, _) -> add l
    | Ppat_record (fields, _) -> List.iter (fun (l, _) -> add l) fields
    | _ -> ());
    default_iterator.pat this p
  in
  let typ this (t : Parsetree.core_type) =
    (match t.ptyp_desc with
    | Ptyp_constr (l, _) | Ptyp_package (l, _) -> add l
    | _ -> ());
    default_iterator.typ this t
  in
  let module_expr this (m : Parsetree.module_expr) =
    (match m.pmod_desc with Pmod_ident l -> add l | _ -> ());
    default_iterator.module_expr this m
  in
  let module_binding this (b : Parsetree.module_binding) =
    alias b.pmb_name.txt b.pmb_expr;
    default_iterator.module_binding this b
  in
  let module_type this (m : Parsetree.module_type) =
    (match m.pmty_desc with Pmty_ident l | Pmty_alias l -> add l | _ -> ());
    default_iterator.module_type this m
  in
  let open_declaration this (o : Parsetree.open_declaration) =
    (match o.popen_expr.pmod_desc with
    | Pmod_ident { txt; _ } -> opens := expand (Longident.flatten txt) :: !opens
    | _ -> ());
    default_iterator.open_declaration this o
  in
  let it =
    { default_iterator with
      expr; pat; typ; module_expr; module_binding; module_type;
      open_declaration }
  in
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  (try it.structure it (Parse.implementation lexbuf) with _ -> ());
  (!paths, !opens, !calls)

(* The library wrapper module of each lib/ directory among [files], from
   the [(name ...)] of its [(library ...)] stanza in [dir/dune]. *)
let library_wrappers files =
  let dirs =
    List.sort_uniq String.compare
      (List.filter_map
         (fun f -> if in_lib f then Some (Filename.dirname f) else None)
         files)
  in
  List.filter_map
    (fun dir ->
      let dune = Filename.concat dir "dune" in
      if not (Sys.file_exists dune) then None
      else
        List.find_map
          (function
            | Lint_sexp.List (Lint_sexp.Atom "library" :: fields) ->
                List.find_map
                  (function
                    | Lint_sexp.List [ Lint_sexp.Atom "name"; Lint_sexp.Atom n ]
                      ->
                        Some (dir, String.capitalize_ascii n)
                    | _ -> None)
                  fields
            | _ -> None)
          (Lint_sexp.parse_string (read_file dune)))
    dirs

(* The lib module (wrapper, module) of a lib/ .ml or .mli file in a
   directory listed in [wrappers] as (dir, wrapper module). *)
let module_of ~wrappers f =
  match List.assoc_opt (Filename.dirname f) wrappers with
  | Some w when in_lib f ->
      let base = Filename.remove_extension (Filename.basename f) in
      Some (w, String.capitalize_ascii base)
  | _ -> None

(* The implementations among (path, contents) [sources]; an .mli adds
   nothing its .ml does not reach. *)
let implementations sources =
  List.filter_map
    (fun (f, src) ->
      let f = normalize f in
      if Filename.check_suffix f ".ml" then Some (f, src) else None)
    sources

(* Every path of an implementation that names a lib module among
   [modules], as (module, rest of the path), and every call of a lib
   value as (module, value, labels passed).  A path [W.M...] names module
   M of the library wrapped as W; a bare [M...] names M of the file's own
   library or of a library the file opens; a bare [v] names v of every lib
   module the file opens. *)
let resolved ~wrappers ~modules (f, src) =
  let paths, opens, calls = module_paths ~path:f src in
  let is_wrapper w = List.exists (fun (_, w') -> w' = w) wrappers in
  let scopes =
    Option.to_list (Option.map fst (module_of ~wrappers f))
    @ List.filter_map
        (function [ w ] when is_wrapper w -> Some w | _ -> None)
        opens
  in
  let resolve = function
    | w :: m :: rest when List.mem (w, m) modules -> Some ((w, m), rest)
    | m :: rest ->
        List.find_map
          (fun w -> if List.mem (w, m) modules then Some ((w, m), rest) else None)
          scopes
    | [] -> None
  in
  let opened =
    List.filter_map
      (fun o -> match resolve o with Some (m, []) -> Some m | _ -> None)
      opens
  in
  let targets p =
    match (resolve p, p) with
    | Some r, _ -> [ r ]
    | None, [ v ] -> List.map (fun m -> (m, [ v ])) opened
    | None, _ -> []
  in
  ( List.concat_map targets paths,
    List.concat_map
      (fun (p, labels) ->
        List.filter_map
          (function m, [ v ] -> Some (m, v, labels) | _ -> None)
          (targets p))
      calls )

let references ~wrappers ~modules source =
  fst (resolved ~wrappers ~modules source)

(* [unreached_findings ~wrappers sources] flags every lib module that no
   bin/ implementation reaches, directly or through other lib modules.
   [sources] are (path, contents) pairs.  Without a bin/ source there is
   no root to measure from, and nothing is flagged. *)
let unreached_findings ~wrappers sources =
  let sources = implementations sources in
  let modules = List.filter_map (fun (f, _) -> module_of ~wrappers f) sources in
  let targets source = List.map fst (references ~wrappers ~modules source) in
  let edges =
    List.filter_map
      (fun ((f, _) as source) ->
        Option.map (fun node -> (node, targets source)) (module_of ~wrappers f))
      sources
  in
  let reached = Hashtbl.create 64 in
  let rec visit node =
    if not (Hashtbl.mem reached node) then begin
      Hashtbl.add reached node ();
      List.iter
        (fun (from, targets) -> if from = node then List.iter visit targets)
        edges
    end
  in
  match List.filter (fun (f, _) -> starts_with ~prefix:"bin/" f) sources with
  | [] -> []
  | bin ->
      List.iter visit (List.concat_map targets bin);
      List.filter_map
        (fun (f, _) ->
          match module_of ~wrappers f with
          | Some ((w, m) as node) when not (Hashtbl.mem reached node) ->
              Some
                (Finding.v ~rule:"R6" ~file:f ~line:0 ~col:0
                   ~ident:(w ^ "." ^ m)
                   ~message:"lib module that no bin/ executable reaches"
                   ~hint:"give it a product caller in bin/, or delete it \
                          with its tests")
          | _ -> None)
        sources

(* The [val]s of an interface as (name that must be named elsewhere,
   value, location): a top-level [val v] must be named itself, a [val v]
   of [module type S] counts as named whenever S is. *)
let interface_values ~path source =
  let rec vals owner items =
    List.concat_map
      (fun (i : Parsetree.signature_item) ->
        match i.psig_desc with
        | Psig_value { pval_name = { txt; _ }; pval_loc; _ } ->
            [ (Option.value owner ~default:txt, txt, pval_loc) ]
        | Psig_modtype
            { pmtd_name = { txt; _ };
              pmtd_type = Some { pmty_desc = Pmty_signature items; _ };
              _ } ->
            vals (Some txt) items
        | _ -> [])
      items
  in
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  try vals None (Parse.interface lexbuf) with _ -> []

(* [unused_value_findings ~wrappers sources] flags every [val] of a lib
   .mli that no implementation outside its own module names.  Sources
   under test/ and examples/ do not count: a value only a test or an
   example names has no product caller. *)
let unused_value_findings ~wrappers sources =
  let impls =
    List.filter (fun (f, _) -> not (no_caller f)) (implementations sources)
  in
  let modules = List.filter_map (fun (f, _) -> module_of ~wrappers f) impls in
  let named = Hashtbl.create 512 in
  List.iter
    (fun ((f, _) as source) ->
      let self = module_of ~wrappers f in
      List.iter
        (function
          | m, v :: _ when Some m <> self -> Hashtbl.replace named (m, v) ()
          | _ -> ())
        (references ~wrappers ~modules source))
    impls;
  List.concat_map
    (fun (f, src) ->
      let f = normalize f in
      match module_of ~wrappers f with
      | Some ((w, m) as node) when Filename.check_suffix f ".mli" ->
          List.filter_map
            (fun (name, v, (loc : Location.t)) ->
              if Hashtbl.mem named (node, name) then None
              else
                let pos = loc.loc_start and ident = String.concat "." [ w; m; v ] in
                Some
                  (Finding.v ~rule:"R6" ~file:f ~line:pos.pos_lnum
                     ~col:(pos.pos_cnum - pos.pos_bol) ~ident
                     ~message:("exported value " ^ ident ^ " that no other \
                                module names")
                     ~hint:"delete it with its tests, drop it from the .mli, \
                            or move a test oracle into test/"))
            (interface_values ~path:f src)
      | _ -> [])
    sources

(* -- R9, tree level: every optional argument is passed and defaulted -- *)

(* The optional arguments of the top-level [val]s of an interface, as
   (value, label, location). *)
let interface_optionals ~path source =
  let rec optionals (t : Parsetree.core_type) =
    match t.ptyp_desc with
    | Ptyp_arrow (Optional l, _, rest) -> l :: optionals rest
    | Ptyp_arrow (_, _, rest) | Ptyp_poly (_, rest) -> optionals rest
    | _ -> []
  in
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  try
    List.concat_map
      (fun (i : Parsetree.signature_item) ->
        match i.psig_desc with
        | Psig_value { pval_name = { txt; _ }; pval_type; pval_loc; _ } ->
            List.map (fun l -> (txt, l, pval_loc)) (optionals pval_type)
        | _ -> [])
      (Parse.interface lexbuf)
  with _ -> []

(* [unpassed_option_findings ~wrappers sources] flags every optional
   argument [?x] of a [val] of a lib .mli that the uses outside the
   value's own module never pass, as [~x] or [?x], or always pass as
   [~x]: its default is all a product gets, or nothing a product gets.
   A use that omits [x], forwards [?x] or names the [val] unapplied
   takes the default.  Sources under test/ and examples/ do not count:
   an option only a test or an example passes, or omits, changes
   nothing a product does. *)
let unpassed_option_findings ~wrappers sources =
  let impls =
    List.filter (fun (f, _) -> not (no_caller f)) (implementations sources)
  in
  let modules = List.filter_map (fun (f, _) -> module_of ~wrappers f) impls in
  let uses = Hashtbl.create 256 in
  List.iter
    (fun ((f, _) as source) ->
      let self = module_of ~wrappers f in
      List.iter
        (fun (m, v, labels) ->
          if Some m <> self then Hashtbl.add uses (m, v) labels)
        (snd (resolved ~wrappers ~modules source)))
    impls;
  List.concat_map
    (fun (f, src) ->
      let f = normalize f in
      match module_of ~wrappers f with
      | Some ((w, m) as node) when Filename.check_suffix f ".mli" ->
          List.filter_map
            (fun (v, l, (loc : Location.t)) ->
              let uses = Hashtbl.find_all uses (node, v) in
              let given = List.mem (Asttypes.Labelled l) in
              let passed =
                List.exists (fun u -> given u || List.mem (Asttypes.Optional l) u)
                  uses
              in
              let finding message hint =
                let pos = loc.loc_start in
                let name = String.concat "." [ w; m; v ] in
                Some
                  (Finding.v ~rule:"R9" ~file:f ~line:pos.pos_lnum
                     ~col:(pos.pos_cnum - pos.pos_bol) ~ident:(name ^ "?" ^ l)
                     ~message:(Printf.sprintf "optional argument ?%s of %s %s"
                                 l name message)
                     ~hint)
              in
              if not passed then
                finding "that no caller outside its module passes"
                  "delete it and use its default as a constant"
              else if List.for_all given uses then
                finding
                  ("that every caller outside its module passes as ~" ^ l)
                  "make it a required labelled argument with no default"
              else None)
            (interface_optionals ~path:f src)
      | _ -> [])
    sources

(* -- R8, file level: bin/ reaches Eqs. 3 and 4 only through the engine *)

let closed_forms =
  [ ("Zeroconf", "Cost"); ("Zeroconf", "Reliability"); ("Zeroconf", "Kernel") ]

(* [closed_form_findings ~wrappers sources] flags, once per bin/
   implementation and module, every closed form of [closed_forms] that
   the implementation names. *)
let closed_form_findings ~wrappers sources =
  List.concat_map
    (fun ((f, _) as source) ->
      if not (starts_with ~prefix:"bin/" f) then []
      else
        List.sort_uniq compare
          (List.map fst (references ~wrappers ~modules:closed_forms source))
        |> List.map (fun (w, m) ->
               Finding.v ~rule:"R8" ~file:f ~line:0 ~col:0 ~ident:(w ^ "." ^ m)
                 ~message:"bin/ module naming a closed form of Eqs. 3/4"
                 ~hint:"read the values through Engine.Executor.n_sweeps, \
                        which validates every point"))
    (implementations sources)

let lint_files files =
  let sources = List.map (fun f -> (f, read_file f)) files in
  let ast_findings =
    List.concat_map (fun (path, source) -> lint_source ~path source) sources
  in
  let wrappers = library_wrappers files in
  List.sort Finding.compare
    (ast_findings
    @ missing_mli_findings files
    @ unreached_findings ~wrappers sources
    @ unused_value_findings ~wrappers sources
    @ unpassed_option_findings ~wrappers sources
    @ closed_form_findings ~wrappers sources)
