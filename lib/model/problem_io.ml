module Json = Ftes_util.Json
open Json

(* v1 added the explicit "schema_version" field; versionless documents
   are the pre-versioning format, accepted as v0 with a deprecation
   warning.  The payload of v0 and v1 is identical — the field exists
   so that a future payload change can be told apart from a corrupt
   file instead of surfacing as a confusing constructor error. *)
let schema_version = 1

let edge_to_json (e : Task_graph.edge) =
  Object
    [ ("src", int e.src);
      ("dst", int e.dst);
      ("transmission_ms", Number e.transmission_ms) ]

let version_to_json (v : Platform.hversion) =
  Object
    [ ("level", int v.level);
      ("cost", Number v.cost);
      ("wcet_ms", floats v.wcet_ms);
      ("pfail", floats v.pfail) ]

let node_type_to_json (nt : Platform.node_type) =
  Object
    [ ("name", String nt.node_name);
      ("versions", List (Array.to_list (Array.map version_to_json nt.versions)))
    ]

let to_json (problem : Problem.t) =
  let app = problem.Problem.app in
  Object
    [ Ftes_util.Versioned_json.field schema_version;
      ( "application",
        Object
          [ ("name", String app.Application.name);
            ("deadline_ms", Number app.Application.deadline_ms);
            ("period_ms", Number app.Application.period_ms);
            ("gamma", Number app.Application.gamma);
            ("recovery_overhead_ms", Number app.Application.recovery_overhead_ms);
            ( "processes",
              List
                (Array.to_list
                   (Array.map (fun s -> String s) app.Application.process_names)) );
            ( "edges",
              List
                (List.map edge_to_json
                   (Task_graph.edges app.Application.graph)) ) ] );
      ( "library",
        List (List.map node_type_to_json (Array.to_list problem.Problem.library))
      ) ]

let edge_of_json json =
  let* src = field "src" to_int json in
  let* dst = field "dst" to_int json in
  let* transmission_ms = field "transmission_ms" to_float json in
  Ok { Task_graph.src; dst; transmission_ms }

let version_of_json json =
  let* level = field "level" to_int json in
  let* cost = field "cost" to_float json in
  let* wcet_ms = field "wcet_ms" float_array json in
  let* pfail = field "pfail" float_array json in
  checked "h-version" (fun () -> Platform.hversion ~level ~cost ~wcet_ms ~pfail)

let node_type_of_json json =
  let* name = field "name" to_string_value json in
  let* versions = field "versions" (list_of version_of_json) json in
  checked ("node " ^ name) (fun () ->
      Platform.node_type ~name ~versions:(Array.of_list versions))

let application_of_json json =
  let* name = field "name" to_string_value json in
  let* deadline_ms = field "deadline_ms" to_float json in
  let* period_ms = field "period_ms" to_float json in
  let* gamma = field "gamma" to_float json in
  let* recovery_overhead_ms = field "recovery_overhead_ms" to_float json in
  let* process_names = field "processes" (list_of to_string_value) json in
  let* edges = field "edges" (list_of edge_of_json) json in
  let* graph =
    checked "graph" (fun () ->
        Task_graph.make ~n:(List.length process_names) edges)
  in
  checked "application" (fun () ->
      Application.make ~name
        ~process_names:(Array.of_list process_names)
        ~period_ms ~graph ~deadline_ms ~gamma ~recovery_overhead_ms ())

let of_json ?on_warning json =
  Ftes_util.Versioned_json.decode ~what:"problem" ~accept_v0:true ?on_warning
    ~current:schema_version
    (fun json ->
      let* app = field "application" application_of_json json in
      let* library = field "library" (list_of node_type_of_json) json in
      checked "problem" (fun () ->
          Problem.make ~app ~library:(Array.of_list library)))
    json

let to_string problem = Json.to_string (to_json problem)

let of_string ?on_warning text =
  let* json = Json.of_string text in
  of_json ?on_warning json

let save path problem = Ftes_util.Versioned_json.save path (to_json problem)

let load ?on_warning path = Ftes_util.Versioned_json.load (of_json ?on_warning) path
