type t = { queue : (unit -> unit) Event_queue.t; mutable clock : float }

let create () = { queue = Event_queue.create (); clock = 0. }
let now t = t.clock

let schedule t ~after thunk =
  if after < 0. then invalid_arg "Engine.schedule: negative delay";
  Event_queue.add t.queue ~time:(t.clock +. after) thunk

let schedule_at t ~time thunk =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  Event_queue.add t.queue ~time thunk

(* a backstop against runaway schedules: no product run comes near it *)
let max_events = 10_000_000

let run ?until t =
  let fired = ref 0 in
  let continue = ref true in
  while !continue do
    match Event_queue.peek t.queue with
    | None -> continue := false
    | Some (time, _) -> (
        match until with
        | Some horizon when time > horizon ->
            t.clock <- horizon;
            continue := false
        | _ -> (
            match Event_queue.pop t.queue with
            | None -> continue := false
            | Some (time, thunk) ->
                t.clock <- time;
                incr fired;
                if !fired > max_events then
                  failwith "Engine.run: event budget exceeded";
                thunk ()))
  done
