module Json = Ftes_util.Json
module Versioned_json = Ftes_util.Versioned_json
module Config = Ftes_core.Config
module Problem = Ftes_model.Problem
module Problem_io = Ftes_model.Problem_io
module Objective = Ftes_pareto.Objective
module Scheduler = Ftes_sched.Scheduler
module Bus = Ftes_sched.Bus

let ( let* ) = Result.bind

let schema_version = 1

type command =
  | Analyze
  | Optimize
  | Exact of { limit : int option }
  | Pareto of {
      eps : float;
      objectives : Objective.t list;
      ref_cost : float option;
    }

let command_name = function
  | Analyze -> "analyze"
  | Optimize -> "optimize"
  | Exact _ -> "exact"
  | Pareto _ -> "pareto"

type whatif = { base_id : string option; delta : Ftes_whatif.Delta.t }

type t = {
  id : string;
  command : command;
  strategy : string;
  config : Config.t;
  problem : Problem.t;
  origin : [ `Example of string | `Inline | `Base of string ];
  source : string;
  whatif : whatif option;
}

(* --- problem & strategy resolution (moved from bin/cli_driver) --- *)

(* Built once, at module initialisation (a [Lazy] forced by two pool
   domains at once would raise): problems are immutable, and every
   request for an example gets the same value, which the daemon's
   identity-keyed caches then recognise with [==]. *)
let fig1 = Ftes_cc.Fig_examples.fig1_problem ()

let fig3 = Ftes_cc.Fig_examples.fig3_problem ()

let cc = Ftes_cc.Cruise_control.problem ()

let problem_of_example = function
  | "fig1" -> Ok fig1
  | "fig3" -> Ok fig3
  | "cc" | "cruise-control" -> Ok cc
  | other ->
      Error
        (Printf.sprintf "unknown example %S (try fig1, fig3, cc)" other)

let config_of_strategy = function
  | "opt" -> Ok Config.default
  | "min" -> Ok Config.min_strategy
  | "max" -> Ok Config.max_strategy
  | other ->
      Error (Printf.sprintf "unknown strategy %S (try opt, min, max)" other)

(* --- policy spellings --- *)

let slack_name = function
  | Scheduler.Shared -> Ok "shared"
  | Scheduler.Conservative -> Ok "conservative"
  | Scheduler.Dedicated -> Ok "dedicated"
  | Scheduler.Per_process _ | Scheduler.Checkpointed _ ->
      Error "slack: only shared, conservative and dedicated travel on the wire"

let slack_of_name = function
  | "shared" -> Ok Scheduler.Shared
  | "conservative" -> Ok Scheduler.Conservative
  | "dedicated" -> Ok Scheduler.Dedicated
  | other ->
      Error
        (Printf.sprintf
           "unknown slack policy %S (try shared, conservative, dedicated)"
           other)

let bus_to_json = function
  | Bus.Fcfs -> Json.String "fcfs"
  | Bus.Tdma { slot_ms } ->
      Json.Object [ ("tdma", Json.Object [ ("slot_ms", Json.Number slot_ms) ]) ]

let bus_of_json = function
  | Json.String "fcfs" -> Ok Bus.Fcfs
  | Json.String other ->
      Error
        (Printf.sprintf
           "unknown bus policy %S (try \"fcfs\" or {\"tdma\": {\"slot_ms\": \
            ...}})"
           other)
  | Json.Object _ as json ->
      let* tdma = Json.member "tdma" json in
      let* slot_ms = Json.field "slot_ms" Json.to_float tdma in
      Ok (Bus.Tdma { slot_ms })
  | _ -> Error "bus: expected a string or an object"

(* --- parsing --- *)

let command_of_json name json =
  match name with
  | "analyze" -> Ok Analyze
  | "optimize" -> Ok Optimize
  | "exact" ->
      let* limit = Json.field_opt "limit" Json.to_int json in
      Ok (Exact { limit })
  | "pareto" ->
      let* eps = Json.field_opt "eps" Json.to_float json in
      let eps = Option.value ~default:0.0 eps in
      let* objectives =
        Json.field_opt "objectives"
          (fun v -> Result.bind (Json.to_string_value v) Objective.parse_list)
          json
      in
      let objectives = Option.value ~default:Objective.all objectives in
      let* ref_cost = Json.field_opt "ref_cost" Json.to_float json in
      Ok (Pareto { eps; objectives; ref_cost })
  | other ->
      Error
        (Printf.sprintf
           "unknown command %S (try analyze, optimize, exact, pareto)" other)

(* Forward compatibility: a v1 envelope carrying a field this build
   does not know is served, not rejected — the unknown field is ignored
   with a warning, so envelope growth (as "base_id"/"delta" grew in
   this version) can never strand an older daemon. *)
let known_fields =
  [ "schema_version"; "id"; "command"; "strategy"; "slack"; "bus"; "kmax";
    "problem"; "example"; "limit"; "eps"; "objectives"; "ref_cost"; "base_id";
    "delta" ]

let warn_unknown ?on_warning json =
  match (json, on_warning) with
  | Json.Object fields, Some warn ->
      List.iter
        (fun (key, _) ->
          if not (List.mem key known_fields) then
            warn (Printf.sprintf "request: ignoring unknown field %S" key))
        fields
  | _ -> ()

(* Where a request's problem comes from. *)
type target =
  [ `Example of string | `Problem of Problem.t | `Base of string * Problem.t ]

(* The checks and the resolution the wire parser and [make] share, on
   fields already decoded: every value a request can carry is
   validated here, whichever way it arrived.  [target] yields the
   problem once every other field has passed. *)
let resolve ~id ~command ~strategy ~slack ~bus ~kmax ~whatif target =
  let* () = if id = "" then Error "id must be a non-empty string" else Ok () in
  let* () =
    match command with
    | Exact { limit = Some n } when n < 1 -> Error "limit must be positive"
    | Pareto { eps; _ } when (not (Float.is_finite eps)) || eps < 0.0 ->
        Error "eps must be finite and non-negative"
    | Pareto { objectives; _ } ->
        (* The wire's own spelling rejects an empty or repeated list. *)
        Result.map ignore (Objective.parse_list (Objective.names objectives))
    | Analyze | Optimize | Exact _ -> Ok ()
  in
  let* config = config_of_strategy strategy in
  let* config =
    match slack with
    | Some s ->
        let* _ = slack_name s in
        Ok (Config.with_slack s config)
    | None -> Ok config
  in
  let* config =
    match bus with
    | Some (Bus.Tdma { slot_ms })
      when (not (Float.is_finite slot_ms)) || slot_ms <= 0.0 ->
        Error "bus: tdma slot_ms must be finite and positive"
    | Some b -> Ok (Config.with_bus b config)
    | None -> Ok config
  in
  let* config =
    match kmax with
    | Some k when k < 0 -> Error "kmax must be non-negative"
    | Some k -> Ok (Config.with_kmax k config)
    | None -> Ok config
  in
  let* () =
    match whatif with
    | Some _ when command <> Optimize ->
        Error "\"delta\" is only valid on an optimize request"
    | Some { base_id = Some ""; _ } -> Error "base_id must be a non-empty string"
    | Some _ | None -> Ok ()
  in
  let* problem, origin, source =
    match (target () : (target, string) result) with
    | Error _ as e -> e
    | Ok (`Example name) ->
        let* problem = problem_of_example name in
        Ok (problem, `Example name, "example:" ^ name)
    | Ok (`Problem problem) ->
        let name = problem.Problem.app.Ftes_model.Application.name in
        Ok (problem, `Inline, "inline:" ^ name)
    | Ok (`Base (base, problem)) -> Ok (problem, `Base base, "base:" ^ base)
  in
  Ok { id; command; strategy; config; problem; origin; source; whatif }

let body ?on_warning ?resolve_base json =
  warn_unknown ?on_warning json;
  let* id = Json.field "id" Json.to_string_value json in
  let* name = Json.field "command" Json.to_string_value json in
  let* command = command_of_json name json in
  let* strategy = Json.field_opt "strategy" Json.to_string_value json in
  let strategy = Option.value ~default:"opt" strategy in
  let* slack =
    Json.field_opt "slack"
      (fun v -> Result.bind (Json.to_string_value v) slack_of_name)
      json
  in
  let* bus = Json.field_opt "bus" bus_of_json json in
  let* kmax = Json.field_opt "kmax" Json.to_int json in
  let* delta = Json.field_opt "delta" Ftes_whatif.Delta.of_json json in
  let* base_id = Json.field_opt "base_id" Json.to_string_value json in
  let* whatif =
    match (delta, base_id) with
    | None, None -> Ok None
    | None, Some _ -> Error "base_id requires a \"delta\""
    | Some delta, base_id -> Ok (Some { base_id; delta })
  in
  let target () =
    match (Json.member "problem" json, Json.member "example" json) with
    | Ok _, Ok _ -> Error "give either \"problem\" or \"example\", not both"
    | Ok doc, Error _ ->
        let* problem = Problem_io.of_json ?on_warning doc in
        Ok (`Problem problem)
    | Error _, Ok name ->
        let* name = Json.to_string_value name in
        Ok (`Example name)
    | Error _, Error _ -> (
        (* A what-if request may name its base instead of carrying a
           problem; the daemon resolves the id against its registry of
           recorded runs. *)
        match whatif with
        | Some { base_id = Some base; _ } -> (
            match resolve_base with
            | None ->
                Error "base_id needs a resident session (no base resolver here)"
            | Some resolve -> (
                match resolve base with
                | Some problem -> Ok (`Base (base, problem))
                | None -> Error (Printf.sprintf "unknown base request id %S" base)
                ))
        | _ -> Error "request carries neither \"problem\" nor \"example\"")
  in
  resolve ~id ~command ~strategy ~slack ~bus ~kmax ~whatif target

let of_json ?on_warning ?resolve_base json =
  Versioned_json.decode ~what:"request" ~accept_v0:true ?on_warning
    ~current:schema_version (body ?on_warning ?resolve_base) json

let of_string ?on_warning ?resolve_base line =
  let* json = Json.of_string line in
  of_json ?on_warning ?resolve_base json

(* --- emission --- *)

let command_fields = function
  | Analyze | Optimize -> []
  | Exact { limit } -> (
      match limit with
      | Some n -> [ ("limit", Json.int n) ]
      | None -> [])
  | Pareto { eps; objectives; ref_cost } ->
      [ ("eps", Json.Number eps);
        ("objectives", Json.String (Objective.names objectives)) ]
      @ (match ref_cost with
        | Some c -> [ ("ref_cost", Json.Number c) ]
        | None -> [])

let to_json t =
  let policy_fields =
    let slack =
      match slack_name t.config.Config.slack with
      | Ok "shared" -> []
      | Ok name -> [ ("slack", Json.String name) ]
      | Error _ -> []
    in
    let bus =
      match t.config.Config.bus with
      | Bus.Fcfs -> []
      | bus -> [ ("bus", bus_to_json bus) ]
    in
    let kmax =
      if t.config.Config.kmax = Config.default.Config.kmax then []
      else [ ("kmax", Json.int t.config.Config.kmax) ]
    in
    slack @ bus @ kmax
  in
  let whatif_fields =
    match t.whatif with
    | None -> []
    | Some { base_id; delta } ->
        (match base_id with
        | Some base -> [ ("base_id", Json.String base) ]
        | None -> [])
        @ [ ("delta", Ftes_whatif.Delta.to_json delta) ]
  in
  let problem_field =
    match t.origin with
    | `Example name -> [ ("example", Json.String name) ]
    | `Inline -> [ ("problem", Problem_io.to_json t.problem) ]
    | `Base _ -> [] (* the base_id field names the problem *)
  in
  Json.Object
    ([ Versioned_json.field schema_version;
       ("id", Json.String t.id);
       ("command", Json.String (command_name t.command));
       ("strategy", Json.String t.strategy) ]
    @ command_fields t.command @ policy_fields @ whatif_fields @ problem_field)

let to_string t = Json.to_string ~minify:true (to_json t)

(* --- programmatic constructor --- *)

let counter = Atomic.make 0

let make ?id ?(strategy = "opt") ?slack ?bus ?kmax ?whatif command problem =
  let id =
    match id with
    | Some id -> id
    | None -> Printf.sprintf "req-%d" (Atomic.fetch_and_add counter 1)
  in
  resolve ~id ~command ~strategy ~slack ~bus ~kmax ~whatif (fun () ->
      Ok (problem :> target))
