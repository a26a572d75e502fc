(* Regenerate every figure of the paper into out/: SVG + CSV per
   figure, plus an ASCII preview on stdout. *)

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* one coordinate of every point of the figure, filled into one float
   array: no array per series, no concatenation *)
let coords f (fig : Engine.Experiments.figure) =
  let count =
    List.fold_left
      (fun n (s : Engine.Experiments.series) -> n + Array.length s.points)
      0 fig.series
  in
  let a = Array.create_float count and k = ref 0 in
  List.iter
    (fun (s : Engine.Experiments.series) ->
      Array.iter
        (fun p ->
          a.(!k) <- f p;
          incr k)
        s.points)
    fig.series;
  a

let axis_of_figure (fig : Engine.Experiments.figure) =
  let x_axis = Output.Axis.of_data ~pad:0. (coords fst fig) in
  let y_axis =
    match (fig.y_min, fig.y_max) with
    | Some lo, Some hi -> Output.Axis.create ~lo ~hi ()
    | _ ->
        (* [of_data] spans the finite values alone *)
        let data_axis = Output.Axis.of_data (coords snd fig) in
        let lo = Option.value ~default:(Output.Axis.lo data_axis) fig.y_min in
        let hi = Option.value ~default:(Output.Axis.hi data_axis) fig.y_max in
        Output.Axis.create ~lo ~hi ()
  in
  (x_axis, y_axis)

let render_figure ~out_dir (fig : Engine.Experiments.figure) =
  let x_axis, y_axis = axis_of_figure fig in
  let chart =
    { Output.Chart.title = fig.title;
      x_label = fig.x_label;
      y_label = fig.y_label;
      x_axis;
      y_axis;
      series =
        List.map
          (fun (s : Engine.Experiments.series) ->
            Output.Chart.series ~label:s.label s.points)
          fig.series }
  in
  let svg_path = Filename.concat out_dir (fig.id ^ ".svg") in
  let csv_path = Filename.concat out_dir (fig.id ^ ".csv") in
  let named =
    List.map
      (fun (s : Engine.Experiments.series) -> (s.label, s.points))
      fig.series
  in
  Output.Chart.save chart svg_path;
  Output.Csv.write_series ~path:csv_path ~x_label:fig.x_label named;
  print_string
    (Output.Ascii_chart.plot ~x_axis ~y_axis ~title:fig.title named);
  Printf.printf "wrote %s and %s\n\n" svg_path csv_path

(* bonus: the (n, r) cost landscape as a heatmap (log10 of Eq. 3) *)
let render_landscape ~out_dir =
  let surface = Engine.Experiments.cost_landscape () in
  let heatmap =
    { Output.Heatmap.title = "log10 C(n, r) landscape (figure2 scenario)";
      x_label = "r (s)";
      y_label = "n";
      x_ticks = Array.map (Printf.sprintf "%.2g") surface.Engine.Experiments.rs;
      y_ticks = Array.map string_of_int surface.Engine.Experiments.ns;
      values = surface.Engine.Experiments.log10_cost }
  in
  let path = Filename.concat out_dir "cost_landscape.svg" in
  Output.Heatmap.save heatmap path;
  Printf.printf "wrote %s\n" path

let generate out_dir () =
  ensure_dir out_dir;
  List.iter (render_figure ~out_dir) (Engine.Experiments.all_figures ());
  List.iter (render_figure ~out_dir) (Engine.Experiments.extension_figures ());
  render_landscape ~out_dir

let () =
  let open Cmdliner in
  let out_dir =
    Arg.(value & pos 0 string "out"
         & info [] ~docv:"OUT_DIR" ~doc:"Directory to write SVG/CSV into.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "figures" ~doc:"Regenerate every figure of the paper into OUT_DIR.")
      Term.(const generate $ out_dir $ Cli_common.jobs_term)
  in
  exit (Cmd.eval cmd)
