type t = {
  size : int;
  mutex : Mutex.t;
  nonempty : Condition.t;        (* signalled when a task is queued *)
  settled : Condition.t;         (* signalled when a batch's last task ends *)
  queue : (unit -> unit) Queue.t;
  mutable workers : unit Domain.t list;  (* spawned domains, <= size - 1 *)
  mutable closing : bool;        (* tells idle workers to exit *)
}

let create size =
  { size;
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    settled = Condition.create ();
    queue = Queue.create ();
    workers = [];
    closing = false }

let size t = t.size

(* Workers loop forever: sleep until a task is queued (or the pool is
   closing), run it outside the lock, repeat.  Tasks are pre-wrapped by
   [run] and never raise. *)
let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closing do
    Condition.wait t.nonempty t.mutex
  done;
  if Queue.is_empty t.queue then (Mutex.unlock t.mutex (* closing *))
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    task ();
    worker_loop t
  end

let at_exit_registered = ref false
let live_pools = ref []

let shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.workers <- [];
  t.closing <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  List.iter Domain.join workers;
  Mutex.lock t.mutex;
  t.closing <- false;
  Mutex.unlock t.mutex

(* Called with t.mutex held. *)
let ensure_workers t =
  let missing = t.size - 1 - List.length t.workers in
  if missing > 0 then begin
    for _ = 1 to missing do
      t.workers <- Domain.spawn (fun () -> worker_loop t) :: t.workers
    done;
    if not !at_exit_registered then begin
      at_exit_registered := true;
      Stdlib.at_exit (fun () -> List.iter shutdown !live_pools)
    end;
    if not (List.memq t !live_pools) then live_pools := t :: !live_pools
  end

let run t tasks =
  let count = Array.length tasks in
  if count = 0 then ()
  else if t.size = 1 || count = 1 then Array.iter (fun task -> task ()) tasks
  else begin
    let pending = ref count in
    let failure = ref None in
    let wrap task () =
      (try task ()
       with exn ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock t.mutex;
         if !failure = None then failure := Some (exn, bt);
         Mutex.unlock t.mutex);
      Mutex.lock t.mutex;
      decr pending;
      if !pending = 0 then Condition.broadcast t.settled;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    ensure_workers t;
    Array.iter (fun task -> Queue.push (wrap task) t.queue) tasks;
    Condition.broadcast t.nonempty;
    (* the caller drains the queue too, then waits for in-flight tasks *)
    while not (Queue.is_empty t.queue) do
      let task = Queue.pop t.queue in
      Mutex.unlock t.mutex;
      task ();
      Mutex.lock t.mutex
    done;
    while !pending > 0 do
      Condition.wait t.settled t.mutex
    done;
    Mutex.unlock t.mutex;
    match !failure with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Process-wide default pool                                           *)

let requested_jobs = ref None
let the_pool = ref None

(* OCaml 5.1 runs at most 128 domains (Max_domains in caml/domain.h) *)
let max_jobs = 128

let jobs_error jobs =
  if jobs < 1 then Some "is not a positive integer"
  else if jobs > max_jobs then
    Some (Printf.sprintf "is more than %d jobs" max_jobs)
  else None

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
          match jobs_error jobs with
          | None -> Ok (Some jobs)
          | Some why -> refuse why))

let default_jobs () =
  match !requested_jobs with
  | Some jobs -> jobs
  | None -> (
      match env_jobs () with
      | Ok (Some jobs) -> jobs
      | Ok None -> Domain.recommended_domain_count ()
      | Error msg -> invalid_arg ("Pool.default_jobs: " ^ msg))

let set_jobs jobs =
  if jobs < 1 then invalid_arg "Pool.set_jobs: jobs < 1";
  if jobs > max_jobs then invalid_arg "Pool.set_jobs: jobs > max_jobs";
  requested_jobs := Some jobs

let get () =
  let jobs = default_jobs () in
  match !the_pool with
  | Some pool when pool.size = jobs -> pool
  | other ->
      Option.iter
        (fun old ->
          shutdown old;
          live_pools := List.filter (fun p -> p != old) !live_pools)
        other;
      let pool = create jobs in
      the_pool := Some pool;
      pool
