(* A single lint finding: where, which rule, what was flagged, and how
   to fix it.  Everything is plain strings/ints so the reporters (human
   and JSON) need no further context. *)

type t = {
  rule : string;  (** rule id: "R1".."R6", "R8", "R9", or "E0" for parse failures *)
  file : string;  (** repo-relative path, '/'-separated *)
  line : int;     (** 1-based; 0 when the finding is file-level *)
  col : int;      (** 0-based column *)
  ident : string; (** the flagged construct, e.g. "Random.self_init" *)
  message : string;
  hint : string;  (** one-line fix hint *)
}

let v ~rule ~file ~line ~col ~ident ~message ~hint =
  { rule; file; line; col; ident; message; hint }

(* Stable report order: by file, then position, then rule. *)
let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let to_human t =
  Printf.sprintf "%s:%d:%d: [%s] %s (fix: %s)" t.file t.line t.col t.rule
    t.message t.hint

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  Printf.sprintf
    "{\"rule\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"ident\":\"%s\",\"message\":\"%s\",\"hint\":\"%s\"}"
    (json_escape t.rule) (json_escape t.file) t.line t.col
    (json_escape t.ident) (json_escape t.message) (json_escape t.hint)
