(* The reviewed-exception list.  Each entry names a (rule, file, ident)
   triple plus a mandatory justification; the lint exits non-zero on any
   finding NOT covered here, so the file is the single audit point for
   every deliberate deviation from the rule catalogue. *)

type entry = {
  rule : string;
  file : string;
  ident : string;  (** matches the finding's ident exactly or as a
                       dotted-path prefix: "Domain.DLS" also covers
                       "Domain.DLS.get" *)
  why : string;    (** mandatory, non-empty justification *)
}

exception Malformed of string

let field name fields =
  let rec go = function
    | [] -> None
    | Lint_sexp.List [ Lint_sexp.Atom k; Lint_sexp.Atom v ] :: _ when k = name
      ->
        Some v
    | _ :: rest -> go rest
  in
  go fields

let entry_of_sexp = function
  | Lint_sexp.List fields ->
      let get name =
        match field name fields with
        | Some v -> v
        | None -> raise (Malformed ("allow entry missing (" ^ name ^ " ...)"))
      in
      let e =
        { rule = get "rule"; file = get "file"; ident = get "ident";
          why = get "why" }
      in
      if String.trim e.why = "" then
        raise (Malformed "allow entry has an empty (why ...) justification");
      e
  | Lint_sexp.Atom a -> raise (Malformed ("expected an allow entry, got " ^ a))

let of_string src =
  try List.map entry_of_sexp (Lint_sexp.parse_string src)
  with Lint_sexp.Parse_error msg -> raise (Malformed msg)

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let ident_matches ~allowed ~found =
  String.equal allowed found
  || String.length found > String.length allowed
     && String.sub found 0 (String.length allowed + 1) = allowed ^ "."

let permits entries (f : Finding.t) =
  List.exists
    (fun e ->
      String.equal e.rule f.rule
      && String.equal e.file f.file
      && ident_matches ~allowed:e.ident ~found:f.ident)
    entries

(* Entries that covered no finding this run: they fail the gate so
   the allowlist shrinks as the code improves instead of fossilising. *)
let unused entries findings =
  List.filter
    (fun e ->
      not
        (List.exists
           (fun (f : Finding.t) ->
             String.equal e.rule f.rule
             && String.equal e.file f.file
             && ident_matches ~allowed:e.ident ~found:f.ident)
           findings))
    entries

type verdict = {
  fresh : Finding.t list;  (** findings no entry waives *)
  waived : int;            (** findings some entry waives *)
  stale : entry list;      (** entries that waive nothing *)
}

let verdict entries findings =
  let fresh = List.filter (fun f -> not (permits entries f)) findings in
  { fresh;
    waived = List.length findings - List.length fresh;
    stale = unused entries findings }

(* the gate passes only when every finding is waived and every waiver
   still covers a finding *)
let exit_code v = if v.fresh = [] && v.stale = [] then 0 else 1
