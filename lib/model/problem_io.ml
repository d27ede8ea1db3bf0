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

(* --- identity --- *)

(* The renderer spells distinct finite floats differently ([-0.0] as
   ["-0"]), and no checked constructor admits a NaN, so equal bits are
   exactly equal rendered bytes. *)
let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_array same a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i = n || (same a.(i) b.(i) && go (i + 1)) in
  go 0

let same_edge (a : Task_graph.edge) (b : Task_graph.edge) =
  a.src = b.src && a.dst = b.dst
  && same_float a.transmission_ms b.transmission_ms

let same_version (a : Platform.hversion) (b : Platform.hversion) =
  a.level = b.level && same_float a.cost b.cost
  && same_array same_float a.wcet_ms b.wcet_ms
  && same_array same_float a.pfail b.pfail

let same_node (a : Platform.node_type) (b : Platform.node_type) =
  String.equal a.node_name b.node_name
  && same_array same_version a.versions b.versions

(* Field for field what [to_json] renders, in its order; the graph's
   derived tables are never looked at. *)
let equal (a : Problem.t) (b : Problem.t) =
  a == b
  ||
  let x = a.Problem.app and y = b.Problem.app in
  String.equal x.Application.name y.Application.name
  && same_float x.Application.deadline_ms y.Application.deadline_ms
  && same_float x.Application.period_ms y.Application.period_ms
  && same_float x.Application.gamma y.Application.gamma
  && same_float x.Application.recovery_overhead_ms
       y.Application.recovery_overhead_ms
  && same_array String.equal x.Application.process_names
       y.Application.process_names
  && List.equal same_edge
       (Task_graph.edges x.Application.graph)
       (Task_graph.edges y.Application.graph)
  && same_array same_node a.Problem.library b.Problem.library

(* FNV-style mixing over everything [equal] compares.  A float enters
   with all 64 bits (the sign folded onto bit 31), so [-0.0] and [0.0]
   usually hash apart. *)
let mix h x = (h lxor x) * 0x100000001b3

let mix_float h f =
  let bits = Int64.bits_of_float f in
  mix h
    (Int64.to_int bits lxor Int64.to_int (Int64.shift_right_logical bits 32))

let mix_floats h a = Array.fold_left mix_float (mix h (Array.length a)) a

let mix_string h s = mix h (Hashtbl.hash s)

let hash (p : Problem.t) =
  let app = p.Problem.app in
  let h = mix_string 0 app.Application.name in
  let h = mix_float h app.Application.deadline_ms in
  let h = mix_float h app.Application.period_ms in
  let h = mix_float h app.Application.gamma in
  let h = mix_float h app.Application.recovery_overhead_ms in
  let h = Array.fold_left mix_string h app.Application.process_names in
  let h =
    List.fold_left
      (fun h (e : Task_graph.edge) ->
        mix_float (mix (mix h e.src) e.dst) e.transmission_ms)
      h
      (Task_graph.edges app.Application.graph)
  in
  let mix_version h (v : Platform.hversion) =
    mix_floats (mix_floats (mix_float (mix h v.level) v.cost) v.wcet_ms) v.pfail
  in
  let h =
    Array.fold_left
      (fun h (nt : Platform.node_type) ->
        Array.fold_left mix_version (mix_string h nt.node_name) nt.versions)
      h p.Problem.library
  in
  h land max_int

let of_string ?on_warning text =
  let* json = Json.of_string text in
  of_json ?on_warning json

let save path problem = Ftes_util.Versioned_json.save path (to_json problem)

let load ?on_warning path = Ftes_util.Versioned_json.load (of_json ?on_warning) path
