type t = { width : int; height : int; mutable elements : string list (* reversed *) }

let create ~width ~height =
  if width < 1 || height < 1 then invalid_arg "Svg.create: non-positive size";
  { width; height; elements = [] }

let width t = t.width
let height t = t.height
let push t e = t.elements <- e :: t.elements

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let dash_attr = function
  | None -> ""
  | Some d -> Printf.sprintf {| stroke-dasharray="%s"|} d

let line t ?(stroke = "#000") ?(stroke_width = 1.) ?dash (x1, y1) (x2, y2) =
  push t
    (Printf.sprintf
       {|<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" stroke-width="%.2f"%s/>|}
       x1 y1 x2 y2 stroke stroke_width (dash_attr dash))

let coord = Num_text.fixed ~decimals:2

let polyline t ?(stroke = "#000") ?(stroke_width = 1.5) ?dash points =
  match points with
  | [] | [ _ ] -> ()
  | _ ->
      let coords =
        String.concat " "
          (List.map (fun (x, y) -> coord x ^ "," ^ coord y) points)
      in
      push t
        (Printf.sprintf
           {|<polyline points="%s" fill="none" stroke="%s" stroke-width="%.2f"%s/>|}
           coords stroke stroke_width (dash_attr dash))

let rect t ?(fill = "none") ?(stroke = "none") (x, y) (w, h) =
  push t
    (Printf.sprintf
       {|<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" stroke="%s"/>|}
       x y w h fill stroke)

let circle t ?(fill = "#000") (cx, cy) r =
  push t
    (Printf.sprintf {|<circle cx="%.2f" cy="%.2f" r="%.2f" fill="%s"/>|} cx cy r fill)

let text t ?(size = 11) ?(anchor = "start") ?(fill = "#333") ~x ~y s =
  push t
    (Printf.sprintf
       {|<text x="%.2f" y="%.2f" font-size="%d" font-family="sans-serif" text-anchor="%s" fill="%s">%s</text>|}
       x y size anchor fill (escape s))

let to_string t =
  Printf.sprintf
    {|<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">
<rect width="%d" height="%d" fill="white"/>
%s
</svg>
|}
    t.width t.height t.width t.height t.width t.height
    (String.concat "\n" (List.rev t.elements))

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))
