module Pool = Exec.Pool
module Parallel = Exec.Parallel

(* the process-wide job count at [jobs], back to serial afterwards *)
let with_jobs jobs f =
  Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_jobs 1) f

let job_counts = [ 1; 2; 8 ]

(* Inputs exercising the serial fallback (empty, singleton), one
   shorter than the job count, and one much longer. *)
let inputs =
  [ [||]; [| 3. |]; Numerics.Grid.linspace 0. 1. 7; Array.init 100 float_of_int ]

let test_map_matches_array_map () =
  let f x = (x *. x) +. 1. in
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          List.iter
            (fun xs ->
              Alcotest.(check (array (float 0.)))
                (Printf.sprintf "jobs = %d, length %d" jobs (Array.length xs))
                (Array.map f xs)
                (Parallel.map f xs))
            inputs))
    job_counts

let test_worker_exception_surfaces () =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          Alcotest.check_raises
            (Printf.sprintf "exception at jobs = %d" jobs)
            (Failure "boom") (fun () ->
              ignore
                (Parallel.map
                   (fun i -> if i = 37 then failwith "boom" else i)
                   (Array.init 64 Fun.id)))))
    job_counts

let test_map_after_failed_map () =
  with_jobs 2 (fun () ->
      (try
         ignore (Parallel.map (fun _ -> failwith "first") (Array.make 8 ()))
       with Failure _ -> ());
      Alcotest.(check (array (float 0.)))
        "map still works after a failure" [| 0.; 1.; 2.; 3. |]
        (Parallel.map float_of_int [| 0; 1; 2; 3 |]))

let test_pool_guards () =
  Alcotest.check_raises "set_jobs 0" (Invalid_argument "Pool.set_jobs: jobs < 1")
    (fun () -> Pool.set_jobs 0);
  (* refused before any domain is asked for *)
  Alcotest.check_raises "set_jobs past the domain limit"
    (Invalid_argument "Pool.set_jobs: jobs > max_jobs")
    (fun () -> Pool.set_jobs 129);
  Alcotest.(check (option string)) "128 jobs accepted" None
    (Pool.jobs_error 128);
  Alcotest.(check (option string)) "129 jobs refused"
    (Some "is more than 128 jobs") (Pool.jobs_error 129)

let test_jobs_follows_set_jobs () =
  Pool.set_jobs 3;
  (try Pool.set_jobs 0 with Invalid_argument _ -> ());
  Alcotest.(check int) "last accepted count" 3 (Pool.jobs ());
  Pool.set_jobs 1;
  Alcotest.(check int) "back to serial" 1 (Pool.jobs ())

let () =
  Alcotest.run "parallel"
    [ ( "determinism",
        [ Alcotest.test_case "map = Array.map" `Quick test_map_matches_array_map ] );
      ( "exceptions",
        [ Alcotest.test_case "worker exception surfaces" `Quick
            test_worker_exception_surfaces;
          Alcotest.test_case "map after a failed map" `Quick
            test_map_after_failed_map ] );
      ( "pool",
        [ Alcotest.test_case "guards" `Quick test_pool_guards;
          Alcotest.test_case "jobs follows set_jobs" `Quick
            test_jobs_follows_set_jobs ] ) ]
