type t = {
  table : (string, Answer.t) Hashtbl.t;
  capacity : int;
  mutable hits : int;
  mutable misses : int;
}

type stats = { hits : int; misses : int; entries : int }

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  { table = Hashtbl.create 64; capacity; hits = 0; misses = 0 }

let lookup t (plan : Plan.t) =
  match Hashtbl.find_opt t.table (Plan.key plan) with
  | Some answer ->
      t.hits <- t.hits + 1;
      (* the stored answer keeps the original run's provenance; only
         the cached flag distinguishes a hit, so values round-trip
         byte-identically *)
      Some { answer with Answer.cached = true }
  | None ->
      t.misses <- t.misses + 1;
      None

let store t (plan : Plan.t) (answer : Answer.t) =
  (* capacity backstop: emptying the table wholesale is deterministic
     and keeps it bounded without an eviction order to maintain;
     workloads here are sweeps that either fit or don't.  [clear], not
     [reset]: [reset] shrinks the bucket array to its initial size, and
     it would grow back step by step after every wrap of a long batch *)
  if
    Hashtbl.length t.table >= t.capacity
    && not (Hashtbl.mem t.table (Plan.key plan))
  then Hashtbl.clear t.table;
  Hashtbl.replace t.table (Plan.key plan) { answer with Answer.cached = false }

let stats (t : t) =
  { hits = t.hits; misses = t.misses; entries = Hashtbl.length t.table }

let clear t =
  Hashtbl.clear t.table;
  t.hits <- 0;
  t.misses <- 0

let pp_stats ppf s =
  let total = s.hits + s.misses in
  Format.fprintf ppf "%d hit%s / %d lookup%s (%d entr%s)" s.hits
    (if s.hits = 1 then "" else "s")
    total
    (if total = 1 then "" else "s")
    s.entries
    (if s.entries = 1 then "y" else "ies")

(* the process-wide default, gated by an explicit off switch *)

let default = create ()
let enabled_flag = ref true
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag
