module Json = Ftes_util.Json

type t = {
  diagnostics : Diagnostic.t list;
  rules_run : string list;
  rules_skipped : string list;
}

let count t severity =
  List.length
    (List.filter (fun d -> d.Diagnostic.severity = severity) t.diagnostics)

let errors t =
  List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error) t.diagnostics

let ok t = errors t = []

let to_text t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "verifier: %d rules run, %d skipped — %d error(s), %d warning(s), %d info\n"
       (List.length t.rules_run)
       (List.length t.rules_skipped)
       (count t Diagnostic.Error) (count t Diagnostic.Warn)
       (count t Diagnostic.Info));
  List.iter
    (fun d -> Buffer.add_string buf (Format.asprintf "  %a\n" Diagnostic.pp d))
    t.diagnostics;
  if t.diagnostics = [] then Buffer.add_string buf "  all checks passed\n";
  Buffer.contents buf

let location_to_json (loc : Diagnostic.location) =
  let kind = Json.String (Diagnostic.location_name loc) in
  match loc with
  | Diagnostic.Global -> Json.Object [ ("kind", kind) ]
  | Diagnostic.Process p ->
      Json.Object [ ("kind", kind); ("process", Json.int p) ]
  | Diagnostic.Member m ->
      Json.Object [ ("kind", kind); ("member", Json.int m) ]
  | Diagnostic.Edge { src; dst } | Diagnostic.Message { src; dst } ->
      Json.Object
        [ ("kind", kind);
          ("src", Json.int src);
          ("dst", Json.int dst) ]

let diagnostic_to_json (d : Diagnostic.t) =
  Json.Object
    [ ("rule", Json.String d.Diagnostic.rule);
      ("severity", Json.String (Diagnostic.severity_name d.Diagnostic.severity));
      ("location", location_to_json d.Diagnostic.location);
      ("detail", Json.String d.Diagnostic.detail) ]

let to_json t =
  Json.Object
    [ ("ok", Json.Bool (ok t));
      ("errors", Json.int (count t Diagnostic.Error));
      ("warnings", Json.int (count t Diagnostic.Warn));
      ("infos", Json.int (count t Diagnostic.Info));
      ("rules_run", Json.List (List.map (fun id -> Json.String id) t.rules_run));
      ( "rules_skipped",
        Json.List (List.map (fun id -> Json.String id) t.rules_skipped) );
      ("diagnostics", Json.List (List.map diagnostic_to_json t.diagnostics)) ]

let fired_rules t =
  List.sort_uniq compare (List.map (fun d -> d.Diagnostic.rule) t.diagnostics)
