(* Run the figures executable into a fresh temporary directory and
   print one line per file written there, sorted by name: the name,
   the byte size and the MD5 digest.  The listing is what the figures
   golden pins, so that byte identity of the tree is checked on every
   test run and at every job count.

   usage: figures_tree.exe FIGURES_EXE JOBS *)

let () =
  match Sys.argv with
  | [| _; exe; jobs |] ->
      let dir = Filename.temp_dir "figures" "" in
      let cmd =
        Filename.quote_command exe ~stdout:Filename.null [ dir; "-j"; jobs ]
      in
      let code = Sys.command cmd in
      if code <> 0 then begin
        Printf.eprintf "%s exited with %d\n" cmd code;
        exit 1
      end;
      let files = Sys.readdir dir in
      Array.sort String.compare files;
      Array.iter
        (fun name ->
          let path = Filename.concat dir name in
          let ic = open_in_bin path in
          let size = in_channel_length ic in
          close_in ic;
          Printf.printf "%s %d %s\n" name size
            (Digest.to_hex (Digest.file path));
          Sys.remove path)
        files;
      Sys.rmdir dir
  | _ ->
      prerr_endline "usage: figures_tree.exe FIGURES_EXE JOBS";
      exit 2
