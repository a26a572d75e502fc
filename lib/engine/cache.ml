type t = {
  table : (string, Answer.t) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

type stats = { hits : int; misses : int }

let capacity = 4096

let lookup t (plan : Plan.t) =
  match Hashtbl.find_opt t.table (Plan.key plan) with
  | Some _ as hit ->
      t.hits <- t.hits + 1;
      hit
  | None ->
      t.misses <- t.misses + 1;
      None

let store t (plan : Plan.t) (answer : Answer.t) =
  let key = Plan.key plan in
  (* capacity backstop: emptying the table wholesale is deterministic
     and keeps it bounded without an eviction order to maintain.
     [clear], not [reset]: [reset] shrinks the bucket array to its
     initial size, and it would grow back step by step after every
     wrap of a long batch *)
  if Hashtbl.length t.table >= capacity && not (Hashtbl.mem t.table key)
  then Hashtbl.clear t.table;
  Hashtbl.replace t.table key answer

let stats (t : t) = { hits = t.hits; misses = t.misses }

let clear t =
  Hashtbl.clear t.table;
  t.hits <- 0;
  t.misses <- 0

let default = { table = Hashtbl.create 64; hits = 0; misses = 0 }
