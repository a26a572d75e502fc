(* Run the figures executable in a fresh temporary directory, writing
   into its relative OUT directory [out], and print either one line per
   file written there, sorted by name (the name, the byte size and the
   MD5 digest), or, with [stdout], what the executable printed: the
   ASCII previews and the "wrote out/..." lines.  The listing and the
   printout are what the figures goldens pin, so that both are checked
   on every test run and at every job count.

   usage: figures_tree.exe FIGURES_EXE JOBS [stdout] *)

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter
      (fun name -> remove (Filename.concat path name))
      (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let run exe jobs =
  let exe =
    if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe
    else exe
  in
  let dir = Filename.temp_dir "figures" "" in
  Sys.chdir dir;
  let cmd =
    Filename.quote_command exe ~stdout:"stdout.txt" [ "out"; "-j"; jobs ]
  in
  let code = Sys.command cmd in
  if code <> 0 then begin
    Printf.eprintf "%s exited with %d\n" cmd code;
    exit 1
  end;
  dir

let print_tree () =
  let files = Sys.readdir "out" in
  Array.sort String.compare files;
  Array.iter
    (fun name ->
      let path = Filename.concat "out" name in
      let ic = open_in_bin path in
      let size = in_channel_length ic in
      close_in ic;
      Printf.printf "%s %d %s\n" name size (Digest.to_hex (Digest.file path)))
    files

let print_stdout () =
  print_string (In_channel.with_open_bin "stdout.txt" In_channel.input_all)

let () =
  let print =
    match Sys.argv with
    | [| _; _; _ |] -> print_tree
    | [| _; _; _; "stdout" |] -> print_stdout
    | _ ->
        prerr_endline "usage: figures_tree.exe FIGURES_EXE JOBS [stdout]";
        exit 2
  in
  let dir = run Sys.argv.(1) Sys.argv.(2) in
  print ();
  Sys.chdir Filename.parent_dir_name;
  remove dir
