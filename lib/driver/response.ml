module Json = Ftes_util.Json
module Versioned_json = Ftes_util.Versioned_json

let ( let* ) = Result.bind

let schema_version = 1

type verdict = Feasible | No_solution | Infeasible | Lint_failure | Failed

let verdict_name = function
  | Feasible -> "feasible"
  | No_solution -> "no-solution"
  | Infeasible -> "infeasible"
  | Lint_failure -> "lint-failure"
  | Failed -> "error"

let verdict_of_name = function
  | "feasible" -> Ok Feasible
  | "no-solution" -> Ok No_solution
  | "infeasible" -> Ok Infeasible
  | "lint-failure" -> Ok Lint_failure
  | "error" -> Ok Failed
  | other -> Error (Printf.sprintf "unknown verdict %S" other)

let exit_of_verdict = function
  | Feasible | No_solution | Failed -> Lifecycle.Success
  | Infeasible -> Lifecycle.Infeasible
  | Lint_failure -> Lifecycle.Lint_failure

type telemetry = {
  queue_wait_ns : int;
  wall_ns : int;
  sfp_hits : int;
  sfp_misses : int;
  eval_hits : int;
  eval_misses : int;
  cache_problems : int;
  registry_hits : int;
  registry_misses : int;
  reuse : Ftes_whatif.Reuse.t option;
}

type t = {
  id : string;
  seq : int;
  verdict : verdict;
  payload : Json.t;
  error : string option;
  telemetry : telemetry option;
}

let counts_json hits misses =
  Json.Object [ ("hits", Json.int hits); ("misses", Json.int misses) ]

let telemetry_json t =
  Json.Object
    ([ ("queue_wait_ns", Json.int t.queue_wait_ns);
       ("wall_ns", Json.int t.wall_ns);
       ("sfp_cache", counts_json t.sfp_hits t.sfp_misses);
       ("evals", counts_json t.eval_hits t.eval_misses);
       ("registry", counts_json t.registry_hits t.registry_misses);
       ("cache_problems", Json.int t.cache_problems) ]
    @
    match t.reuse with
    | Some reuse -> [ ("whatif", Ftes_whatif.Reuse.to_json reuse) ]
    | None -> [])

let to_json t =
  Json.Object
    ([ Versioned_json.field schema_version;
       ("id", Json.String t.id);
       ("seq", Json.int t.seq);
       ("verdict", Json.String (verdict_name t.verdict));
       ("payload", t.payload) ]
    @ (match t.error with
      | Some msg -> [ ("error", Json.String msg) ]
      | None -> [])
    @
    match t.telemetry with
    | Some tel -> [ ("telemetry", telemetry_json tel) ]
    | None -> [])

let to_line t = Json.to_string ~minify:true (to_json t)

let counts_of_json json =
  let* hits = Json.field "hits" Json.to_int json in
  let* misses = Json.field "misses" Json.to_int json in
  Ok (hits, misses)

let telemetry_of_json json =
  let* queue_wait_ns = Json.field "queue_wait_ns" Json.to_int json in
  let* wall_ns = Json.field "wall_ns" Json.to_int json in
  let* sfp_hits, sfp_misses = Json.field "sfp_cache" counts_of_json json in
  let* eval_hits, eval_misses = Json.field "evals" counts_of_json json in
  (* "registry" arrived with the what-if engine; pre-whatif envelopes
     simply lack it, so absence parses as zero rather than an error. *)
  let* registry = Json.field_opt "registry" counts_of_json json in
  let registry_hits, registry_misses = Option.value registry ~default:(0, 0) in
  let* cache_problems = Json.field "cache_problems" Json.to_int json in
  let* reuse = Json.field_opt "whatif" Ftes_whatif.Reuse.of_json json in
  Ok
    { queue_wait_ns;
      wall_ns;
      sfp_hits;
      sfp_misses;
      eval_hits;
      eval_misses;
      cache_problems;
      registry_hits;
      registry_misses;
      reuse }

let of_json ?on_warning json =
  Versioned_json.decode ~what:"response" ~accept_v0:true ?on_warning
    ~current:schema_version
    (fun json ->
      let* id = Json.field "id" Json.to_string_value json in
      let* seq = Json.field "seq" Json.to_int json in
      let* verdict =
        Json.field "verdict"
          (fun v -> Result.bind (Json.to_string_value v) verdict_of_name)
          json
      in
      let* payload = Json.member "payload" json in
      let* error = Json.field_opt "error" Json.to_string_value json in
      let* telemetry = Json.field_opt "telemetry" telemetry_of_json json in
      Ok { id; seq; verdict; payload; error; telemetry })
    json

let of_string ?on_warning line =
  let* json = Json.of_string line in
  of_json ?on_warning json

let fingerprint t =
  Printf.sprintf "%s|%s|%s" (verdict_name t.verdict) t.id
    (Json.to_string ~minify:true t.payload)
