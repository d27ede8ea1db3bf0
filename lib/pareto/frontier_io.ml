module Json = Ftes_util.Json
module Design = Ftes_model.Design
open Json

let schema_version = 1

let csv_header =
  [ "cost"; "slack_ms"; "margin_log10"; "members"; "levels"; "reexecs";
    "mapping" ]

(* %.17g round-trips every finite double through float_of_string. *)
let float_field = Printf.sprintf "%.17g"

let ints_field arr =
  String.concat ";" (List.map string_of_int (Array.to_list arr))

let ints_of_field label text =
  let parts = if text = "" then [] else String.split_on_char ';' text in
  let rec build acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | part :: rest -> (
        match int_of_string_opt part with
        | Some v -> build (v :: acc) rest
        | None -> Error (Printf.sprintf "%s: bad integer %S" label part))
  in
  build [] parts

let float_of_field label text =
  match float_of_string_opt text with
  | Some v when Float.is_finite v -> Ok v
  | _ -> Error (Printf.sprintf "%s: bad number %S" label text)

let point_row (p : Archive.point) =
  [ float_field p.Archive.cost;
    float_field p.Archive.slack;
    float_field p.Archive.margin;
    ints_field p.Archive.design.Design.members;
    ints_field p.Archive.design.Design.levels;
    ints_field p.Archive.design.Design.reexecs;
    ints_field p.Archive.design.Design.mapping ]

let to_csv archive =
  csv_header :: List.map point_row (Archive.points archive)

let point_of_fields ~problem ~row cost slack margin members levels reexecs
    mapping =
  let label field = Printf.sprintf "row %d, %s" row field in
  let* cost = float_of_field (label "cost") cost in
  let* slack = float_of_field (label "slack_ms") slack in
  let* margin = float_of_field (label "margin_log10") margin in
  let* members = ints_of_field (label "members") members in
  let* levels = ints_of_field (label "levels") levels in
  let* reexecs = ints_of_field (label "reexecs") reexecs in
  let* mapping = ints_of_field (label "mapping") mapping in
  let* design =
    checked
      (Printf.sprintf "row %d, design" row)
      (fun () -> Design.make problem ~members ~levels ~reexecs ~mapping)
  in
  Ok { Archive.design; cost; slack; margin }

let of_csv ?spec ~problem rows =
  match rows with
  | [] -> Error "empty frontier CSV"
  | header :: body ->
      if header <> csv_header then
        Error
          (Printf.sprintf "unexpected frontier CSV header [%s]"
             (String.concat "; " header))
      else begin
        let rec build acc row = function
          | [] -> Ok (List.rev acc)
          | [ cost; slack; margin; members; levels; reexecs; mapping ]
            :: rest ->
              let* p =
                point_of_fields ~problem ~row cost slack margin members levels
                  reexecs mapping
              in
              build (p :: acc) (row + 1) rest
          | bad :: _ ->
              Error
                (Printf.sprintf "row %d: expected %d fields, found %d" row
                   (List.length csv_header) (List.length bad))
        in
        let* pts = build [] 1 body in
        checked "frontier" (fun () -> Archive.of_points ?spec pts)
      end

let point_to_json (p : Archive.point) =
  Object
    [ ("cost", Number p.Archive.cost);
      ("slack_ms", Number p.Archive.slack);
      ("margin_log10", Number p.Archive.margin);
      ("members", ints p.Archive.design.Design.members);
      ("levels", ints p.Archive.design.Design.levels);
      ("reexecs", ints p.Archive.design.Design.reexecs);
      ("mapping", ints p.Archive.design.Design.mapping) ]

let to_json ?reference archive =
  let spec = Archive.spec_of archive in
  let pts = Archive.points archive in
  let progress =
    match reference with
    | None -> []
    | Some r ->
        [ ( "reference",
            Object
              [ ("cost", Number r.Archive.ref_cost);
                ("slack_ms", Number r.Archive.ref_slack);
                ("margin_log10", Number r.Archive.ref_margin) ] );
          ("hypervolume", Number (Archive.hypervolume archive ~reference:r))
        ]
  in
  Object
    ([ Ftes_util.Versioned_json.field schema_version;
       ( "objectives",
         List
           (List.map
              (fun o -> String (Objective.name o))
              spec.Archive.objectives) );
       ("eps", Number spec.Archive.eps);
       ("size", int (List.length pts)) ]
    @ progress
    @ [ ("points", List (List.map point_to_json pts)) ])

let point_of_json ~problem ~row json =
  let* cost = field "cost" to_float json in
  let* slack = field "slack_ms" to_float json in
  let* margin = field "margin_log10" to_float json in
  let* members = field "members" int_array json in
  let* levels = field "levels" int_array json in
  let* reexecs = field "reexecs" int_array json in
  let* mapping = field "mapping" int_array json in
  let* design =
    checked
      (Printf.sprintf "point %d, design" row)
      (fun () -> Design.make problem ~members ~levels ~reexecs ~mapping)
  in
  Ok { Archive.design; cost; slack; margin }

let of_json ?on_warning ~problem json =
  Ftes_util.Versioned_json.decode ~what:"frontier" ~accept_v0:true ?on_warning
    ~current:schema_version
    (fun json ->
      let* objectives =
        field "objectives"
          (list_of (fun j -> Result.bind (to_string_value j) Objective.of_name))
          json
      in
      let* eps = field "eps" to_float json in
      let* spec = checked "spec" (fun () -> Archive.spec ~objectives ~eps ()) in
      let* pts =
        field "points"
          (list_ofi (fun i -> point_of_json ~problem ~row:(i + 1)))
          json
      in
      checked "frontier" (fun () -> Archive.of_points ~spec pts))
    json

let to_string ?reference archive = Json.to_string (to_json ?reference archive)

let of_string ?on_warning ~problem text =
  let* json = Json.of_string text in
  of_json ?on_warning ~problem json
