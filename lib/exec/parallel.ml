(* Helpers and caller take indices from one counter until it passes the
   end or an element has raised; each result lands in its own slot. *)
let map f xs =
  let n = Array.length xs in
  let jobs = min (Pool.jobs ()) n in
  if jobs < 2 then Array.map f xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && Option.is_none (Atomic.get failure) then begin
        (match f xs.(i) with
         | value -> results.(i) <- Some value
         | exception exn ->
             let bt = Printexc.get_raw_backtrace () in
             ignore (Atomic.compare_and_set failure None (Some (exn, bt))));
        work ()
      end
    in
    let helpers = ref [] in
    (try
       for _ = 2 to jobs do
         helpers := Domain.spawn work :: !helpers
       done
     with exn ->
       let bt = Printexc.get_raw_backtrace () in
       Atomic.set next n;
       List.iter Domain.join !helpers;
       Printexc.raise_with_backtrace exn bt);
    work ();
    List.iter Domain.join !helpers;
    match Atomic.get failure with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None ->
        Array.map
          (function Some value -> value | None -> assert false (* all slots filled *))
          results
  end
