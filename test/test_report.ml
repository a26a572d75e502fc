let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let report =
  Engine.Report.markdown ~draft_n:4 ~draft_r:2. Zeroconf.Params.realistic_ethernet

let test_sections_present () =
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains report needle))
    [ "# Zeroconf design report: realistic-ethernet"; "## Scenario";
      "## Operating points"; "## Cost/reliability frontier";
      "## Sensitivity"; "nu = 2" ]

let test_headline_numbers_present () =
  (* the Sec. 6 anchors must appear in the rendered tables *)
  Alcotest.(check bool) "optimal n = 2 row" true (contains report "| optimal | 2 | 1.748");
  Alcotest.(check bool) "draft row" true (contains report "| draft | 4 | 2.000");
  Alcotest.(check bool) "cost ratio" true (contains report "**2.05x**")

let test_markdown_tables_well_formed () =
  (* every table line has matching pipe counts with its header *)
  let lines = String.split_on_char '\n' report in
  let rec scan = function
    | header :: sep :: rest
      when String.length header > 0 && header.[0] = '|'
           && String.length sep > 1 && sep.[0] = '|' && contains sep "---" ->
        let pipes s = String.fold_left (fun acc c -> if c = '|' then acc + 1 else acc) 0 s in
        let width = pipes header in
        Alcotest.(check int) "separator width" width (pipes sep);
        let rec rows = function
          | row :: more when String.length row > 0 && row.[0] = '|' ->
              Alcotest.(check int) "row width" width (pipes row);
              rows more
          | more -> scan more
        in
        rows rest
    | _ :: rest -> scan rest
    | [] -> ()
  in
  scan lines

let test_custom_draft_point () =
  let r = Engine.Report.markdown ~draft_n:2 ~draft_r:0.5 Zeroconf.Params.figure2 in
  Alcotest.(check bool) "custom draft row" true (contains r "| draft | 2 | 0.500")

(* the draft point passes a mean-cost query's bound, or no report:
   past it the sensitivities were inf - inf *)
let test_huge_draft_refused () =
  Alcotest.check_raises "draft r = 1e308"
    (Invalid_argument
       "Query: mean-cost at n = 4, r = 1e+308: the largest attempt cost n (r + \
        c) + E = inf is not finite")
    (fun () ->
      ignore (Engine.Report.markdown ~draft_n:4 ~draft_r:1e308 Zeroconf.Params.figure2))

let () =
  Alcotest.run "report"
    [ ( "structure",
        [ Alcotest.test_case "sections" `Quick test_sections_present;
          Alcotest.test_case "headline numbers" `Quick test_headline_numbers_present;
          Alcotest.test_case "well-formed tables" `Quick
            test_markdown_tables_well_formed;
          Alcotest.test_case "custom draft" `Quick test_custom_draft_point;
          Alcotest.test_case "huge draft refused" `Quick test_huge_draft_refused ] ) ]
