(* BENCH_trajectory.jsonl: one JSON object per line, each a record or a
   result line of perfbench/run.py, tagged with the PR it measured
   ("pr"), the side ("parent" or "child"), the index of the pair of
   runs ("pair") and the host's CPU model ("cpu").  A minimal JSON
   reader, the tagging, and the speed-claim verdict over a PR's pairs. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

(* -- reading ---------------------------------------------------------- *)

let parse s =
  let len = String.length s and i = ref 0 in
  let bad what = raise (Bad (Printf.sprintf "%s at byte %d" what !i)) in
  let peek () = if !i < len then s.[!i] else '\000' in
  let rec blanks () =
    match peek () with
    | ' ' | '\t' | '\r' | '\n' ->
        incr i;
        blanks ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then incr i else bad (Printf.sprintf "expected %C" c)
  in
  let word w v =
    if !i + String.length w <= len && String.sub s !i (String.length w) = w
    then begin
      i := !i + String.length w;
      v
    end
    else bad "unknown token"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr i
      | '\\' ->
          incr i;
          let c = peek () in
          incr i;
          (match c with
          | '"' | '\\' | '/' -> Buffer.add_char b c
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' when !i + 4 <= len -> (
              match int_of_string_opt ("0x" ^ String.sub s !i 4) with
              | Some u ->
                  i := !i + 4;
                  Buffer.add_utf_8_uchar b
                    (if Uchar.is_valid u then Uchar.of_int u else Uchar.rep)
              | None -> bad "bad \\u escape")
          | _ -> bad "bad escape");
          go ()
      | '\000' when !i >= len -> bad "unterminated string"
      | c ->
          Buffer.add_char b c;
          incr i;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !i in
    while
      !i < len
      && match s.[!i] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr i
    done;
    match float_of_string_opt (String.sub s start (!i - start)) with
    | Some x -> Num x
    | None -> bad "bad number"
  in
  let rec value () =
    blanks ();
    match peek () with
    | '{' ->
        incr i;
        blanks ();
        if peek () = '}' then (incr i; Obj [])
        else
          let rec members acc =
            blanks ();
            let k = string () in
            blanks ();
            expect ':';
            let v = value () in
            blanks ();
            match peek () with
            | ',' ->
                incr i;
                members ((k, v) :: acc)
            | '}' ->
                incr i;
                Obj (List.rev ((k, v) :: acc))
            | _ -> bad "expected ',' or '}'"
          in
          members []
    | '[' ->
        incr i;
        blanks ();
        if peek () = ']' then (incr i; Arr [])
        else
          let rec elements acc =
            let v = value () in
            blanks ();
            match peek () with
            | ',' ->
                incr i;
                elements (v :: acc)
            | ']' ->
                incr i;
                Arr (List.rev (v :: acc))
            | _ -> bad "expected ',' or ']'"
          in
          elements []
    | '"' -> Str (string ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | _ -> number ()
  in
  let v = value () in
  blanks ();
  if !i <> len then bad "trailing bytes";
  v

let member k = function Obj kv -> List.assoc_opt k kv | _ -> None

let path keys v =
  List.fold_left (fun v k -> Option.bind v (member k)) (Some v) keys

(* -- the lines -------------------------------------------------------- *)

type side = Parent | Child

let side_name = function Parent -> "parent" | Child -> "child"

let side_of_name = function
  | "parent" -> Some Parent
  | "child" -> Some Child
  | _ -> None

type body =
  | Record of {
      workload : string;
      code : string;  (** the commit, or the source hash outside git *)
      metrics : (string * float) list;
    }
  | Result of { correct : bool; metrics : (string * float) list }

type line = { pr : int; side : side; pair : int; cpu : string; body : body }

let int_field k v =
  match member k v with
  | Some (Num x) when Float.is_integer x && x >= 0. -> int_of_float x
  | _ -> raise (Bad (Printf.sprintf "no %S count" k))

let string_field k v =
  match member k v with
  | Some (Str s) when s <> "" -> s
  | _ -> raise (Bad (Printf.sprintf "no %S string" k))

(* a metrics object: numbers in a record, {"value", "unit"} objects in a
   result line *)
let metrics ~boxed v =
  match member "metrics" v with
  | Some (Obj (_ :: _ as kv)) ->
      List.map
        (fun (k, m) ->
          match if boxed then member "value" m else Some m with
          | Some (Num x) -> (k, x)
          | _ -> raise (Bad (Printf.sprintf "metric %S is not a number" k)))
        kv
  | _ -> raise (Bad "no metrics")

let body v =
  match member "provenance" v with
  | Some prov ->
      let code =
        match (member "commit" prov, member "source_sha256" prov) with
        | Some (Str c), _ when c <> "" -> c
        | _, Some (Str h) when h <> "" -> h
        | _ -> raise (Bad "the record names no commit or source hash")
      in
      Record
        { workload = string_field "workload" v; code;
          metrics = metrics ~boxed:false v }
  | None -> (
      match member "correct" v with
      | Some (Bool correct) ->
          ignore (int_field "attempted" v, int_field "failed" v);
          Result { correct; metrics = metrics ~boxed:true v }
      | _ -> raise (Bad "neither a record nor a result line"))

let line_of_json v =
  let side =
    match side_of_name (string_field "side" v) with
    | Some s -> s
    | None -> raise (Bad "side is neither parent nor child")
  in
  { pr = int_field "pr" v; side; pair = int_field "pair" v;
    cpu = string_field "cpu" v; body = body v }

(* Every line of [text], or the first fault with its line number.  A
   result line must follow the record of its run (same PR, side and
   pair), which names the commit both describe. *)
let lines_of_string text =
  let rows =
    String.split_on_char '\n' text |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) -> String.trim l <> "")
  in
  let rec go prev acc = function
    | [] -> Ok (List.rev acc)
    | (no, l) :: rest -> (
        match line_of_json (parse l) with
        | exception Bad msg -> Error (Printf.sprintf "line %d: %s" no msg)
        | line -> (
            match (line.body, prev) with
            | Result _, Some { body = Record _; pr; side; pair; _ }
              when pr = line.pr && side = line.side && pair = line.pair ->
                go (Some line) (line :: acc) rest
            | Result _, _ ->
                Error
                  (Printf.sprintf "line %d: a result line without its record"
                     no)
            | Record _, _ -> go (Some line) (line :: acc) rest))
  in
  go None [] rows

(* -- tagging ---------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* the first index of [sub] in [s] at or after [i], if any *)
let rec find_sub s sub i =
  if i + String.length sub > String.length s then None
  else if String.sub s i (String.length sub) = sub then Some i
  else find_sub s sub (i + 1)

(* [line] naming [commit] in its provenance: run.py, run outside a git
   checkout (a [git archive] copy of the parent), prints
   ["commit": null] there.  A result line has no provenance and stays
   as it is; a record naming another commit is refused. *)
let with_commit commit line =
  match member "provenance" (parse line) with
  | None -> line
  | Some prov -> (
      match member "commit" prov with
      | Some (Str c) when c = commit -> line
      | Some Null -> (
          let null = "\"commit\": null" in
          match
            Option.bind (find_sub line "\"provenance\"" 0) (find_sub line null)
          with
          | None -> raise (Bad "the provenance's commit is not spelt null")
          | Some i ->
              let j = i + String.length null in
              String.sub line 0 i ^ "\"commit\": " ^ json_string commit
              ^ String.sub line j (String.length line - j))
      | _ -> raise (Bad "the record names another commit"))

(* [line], an object of run.py's, with the tags first, and [commit] in
   its provenance when given *)
let tag ?commit ~pr ~side ~pair ~cpu line =
  let line = String.trim line in
  if String.length line < 2 || line.[0] <> '{' then
    raise (Bad "not a JSON object");
  let line = match commit with Some c -> with_commit c line | None -> line in
  Printf.sprintf "{\"pr\": %d, \"side\": %s, \"pair\": %d, \"cpu\": %s, %s" pr
    (json_string (side_name side))
    pair (json_string cpu)
    (String.sub line 1 (String.length line - 1))

(* -- the verdict ------------------------------------------------------ *)

(* the quantile at [p] of sorted [xs], linear between order statistics
   (xs.(0) at 0, the last at 1) *)
let quantile xs p =
  let n = Array.length xs in
  let h = p *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  xs.(lo) +. ((h -. float_of_int lo) *. (xs.(hi) -. xs.(lo)))

let median xs = quantile xs 0.5

type verdict = {
  pairs : (float * float) list;  (** (parent, child), by pair index *)
  wins : int;
  parent_median : float;
  child_median : float;
  parent_iqr : float;
  gain : float;  (** the medians' difference, > 0 when the child is better *)
  claim : bool;
}

(* A speed claim holds on at least 10 pairs, a win in at least nine of
   ten of them, and a gain of the medians larger than the parent's
   interquartile range. *)
let verdict lines ~pr ~workload ~metric ~higher_better =
  let value side pair =
    List.find_map
      (fun l ->
        match l.body with
        | Record r
          when l.pr = pr && l.side = side && l.pair = pair
               && r.workload = workload ->
            List.assoc_opt metric r.metrics
        | _ -> None)
      lines
  in
  let indices =
    List.filter_map
      (fun l ->
        match l.body with
        | Record r when l.pr = pr && r.workload = workload -> Some l.pair
        | _ -> None)
      lines
    |> List.sort_uniq compare
  in
  let pairs =
    List.filter_map
      (fun i ->
        match (value Parent i, value Child i) with
        | Some p, Some c -> Some (p, c)
        | _ -> None)
      indices
  in
  if pairs = [] then None
  else
    let better c p = if higher_better then c > p else c < p in
    let sorted f =
      let a = Array.of_list (List.map f pairs) in
      Array.sort compare a;
      a
    in
    let parents = sorted fst and children = sorted snd in
    let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
    let parent_median = median parents and child_median = median children in
    let parent_iqr = quantile parents 0.75 -. quantile parents 0.25 in
    let gain =
      if higher_better then child_median -. parent_median
      else parent_median -. child_median
    in
    let n = List.length pairs in
    Some
      { pairs; wins; parent_median; child_median; parent_iqr; gain;
        claim = n >= 10 && 10 * wins >= 9 * n && gain > parent_iqr }
