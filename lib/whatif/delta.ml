module Json = Ftes_util.Json
open Ftes_model
open Json

type t =
  | Deadline_set of float
  | Deadline_scale of float
  | Period_set of float
  | Period_scale of float
  | Gamma_set of float
  | Wcet_scale of { node : int; factor : float }
  | Ser_scale of { node : int; factor : float }
  | Hversion_cost_set of { node : int; level : int; cost : float }
  | Hversion_wcet_set of { node : int; level : int; proc : int; wcet_ms : float }
  | Hversion_pfail_set of { node : int; level : int; proc : int; pfail : float }
  | Node_add of Platform.node_type
  | Node_remove of int
  | Kmax_set of int

let class_name = function
  | Deadline_set _ -> "deadline-set"
  | Deadline_scale _ -> "deadline-scale"
  | Period_set _ -> "period-set"
  | Period_scale _ -> "period-scale"
  | Gamma_set _ -> "gamma-set"
  | Wcet_scale _ -> "wcet-scale"
  | Ser_scale _ -> "ser-scale"
  | Hversion_cost_set _ -> "hversion-cost-set"
  | Hversion_wcet_set _ -> "hversion-wcet-set"
  | Hversion_pfail_set _ -> "hversion-pfail-set"
  | Node_add _ -> "node-add"
  | Node_remove _ -> "node-remove"
  | Kmax_set _ -> "kmax-set"

let class_names =
  [ "deadline-set"; "deadline-scale"; "period-set"; "period-scale"; "gamma-set";
    "wcet-scale"; "ser-scale"; "hversion-cost-set"; "hversion-wcet-set";
    "hversion-pfail-set"; "node-add"; "node-remove"; "kmax-set" ]

let positive_factor label factor =
  if Float.is_finite factor && factor > 0. then Ok ()
  else Error (Printf.sprintf "%s: factor must be positive and finite" label)

(* Rebuild the application with some globals replaced.  The period is
   always passed explicitly — [Application.make] defaults it to the
   deadline, which would silently couple the two under a deadline
   delta. *)
let with_app problem ?deadline_ms ?period_ms ?gamma label =
  let app = problem.Problem.app in
  let deadline_ms =
    Option.value deadline_ms ~default:app.Application.deadline_ms
  in
  let period_ms = Option.value period_ms ~default:app.Application.period_ms in
  let gamma = Option.value gamma ~default:app.Application.gamma in
  checked label (fun () ->
      let app =
        Application.make ~name:app.Application.name
          ~process_names:app.Application.process_names ~period_ms
          ~graph:app.Application.graph ~deadline_ms ~gamma
          ~recovery_overhead_ms:app.Application.recovery_overhead_ms ()
      in
      Problem.make ~app ~library:problem.Problem.library)

let with_library problem library label =
  checked label (fun () -> Problem.make ~app:problem.Problem.app ~library)

(* Replace library node [j] by [f (node j)].  Untouched node types are
   passed through physically so their tables stay the exact bits a cold
   load of the perturbed problem would carry. *)
let edit_node problem j f label =
  if j < 0 || j >= Problem.n_library problem then
    Error (Printf.sprintf "%s: node index %d out of range" label j)
  else
    let* nt = f (Problem.node problem j) in
    let library =
      Array.mapi
        (fun i old -> if i = j then nt else old)
        problem.Problem.library
    in
    with_library problem library label

(* Rebuild one node type with the version at [level] replaced by
   [f version]; other versions pass through untouched.  [node_type]
   re-validates hardening monotonicity over the edited array. *)
let edit_version (nt : Platform.node_type) ~level f label =
  if level < 1 || level > Platform.levels nt then
    Error (Printf.sprintf "%s: level %d out of range" label level)
  else
    checked label (fun () ->
        let versions =
          Array.map
            (fun (v : Platform.hversion) -> if v.level = level then f v else v)
            nt.Platform.versions
        in
        Platform.node_type ~name:nt.Platform.node_name ~versions)

let set_cell label arr i value =
  if i < 0 || i >= Array.length arr then
    invalid_arg (Printf.sprintf "%s: process index %d out of range" label i)
  else Array.mapi (fun k x -> if k = i then value else x) arr

let apply problem delta =
  match delta with
  | Deadline_set d -> with_app problem ~deadline_ms:d "deadline-set"
  | Deadline_scale f ->
      let* () = positive_factor "deadline-scale" f in
      with_app problem
        ~deadline_ms:(problem.Problem.app.Application.deadline_ms *. f)
        "deadline-scale"
  | Period_set p -> with_app problem ~period_ms:p "period-set"
  | Period_scale f ->
      let* () = positive_factor "period-scale" f in
      with_app problem
        ~period_ms:(problem.Problem.app.Application.period_ms *. f)
        "period-scale"
  | Gamma_set g -> with_app problem ~gamma:g "gamma-set"
  | Wcet_scale { node; factor } ->
      let* () = positive_factor "wcet-scale" factor in
      edit_node problem node
        (fun nt ->
          checked "wcet-scale" (fun () ->
              let versions =
                Array.map
                  (fun (v : Platform.hversion) ->
                    Platform.hversion ~level:v.level ~cost:v.cost
                      ~wcet_ms:(Array.map (fun w -> w *. factor) v.wcet_ms)
                      ~pfail:v.pfail)
                  nt.Platform.versions
              in
              Platform.node_type ~name:nt.Platform.node_name ~versions))
        "wcet-scale"
  | Ser_scale { node; factor } ->
      let* () = positive_factor "ser-scale" factor in
      edit_node problem node
        (fun nt ->
          checked "ser-scale" (fun () ->
              let versions =
                Array.map
                  (fun (v : Platform.hversion) ->
                    Platform.hversion ~level:v.level ~cost:v.cost
                      ~wcet_ms:v.wcet_ms
                      ~pfail:(Array.map (fun p -> p *. factor) v.pfail))
                  nt.Platform.versions
              in
              Platform.node_type ~name:nt.Platform.node_name ~versions))
        "ser-scale"
  | Hversion_cost_set { node; level; cost } ->
      edit_node problem node
        (fun nt ->
          edit_version nt ~level
            (fun v ->
              Platform.hversion ~level:v.level ~cost ~wcet_ms:v.wcet_ms
                ~pfail:v.pfail)
            "hversion-cost-set")
        "hversion-cost-set"
  | Hversion_wcet_set { node; level; proc; wcet_ms } ->
      edit_node problem node
        (fun nt ->
          edit_version nt ~level
            (fun v ->
              Platform.hversion ~level:v.level ~cost:v.cost
                ~wcet_ms:(set_cell "hversion-wcet-set" v.wcet_ms proc wcet_ms)
                ~pfail:v.pfail)
            "hversion-wcet-set")
        "hversion-wcet-set"
  | Hversion_pfail_set { node; level; proc; pfail } ->
      edit_node problem node
        (fun nt ->
          edit_version nt ~level
            (fun v ->
              Platform.hversion ~level:v.level ~cost:v.cost ~wcet_ms:v.wcet_ms
                ~pfail:(set_cell "hversion-pfail-set" v.pfail proc pfail))
            "hversion-pfail-set")
        "hversion-pfail-set"
  | Node_add nt ->
      with_library problem
        (Array.append problem.Problem.library [| nt |])
        "node-add"
  | Node_remove j ->
      let n = Problem.n_library problem in
      if j < 0 || j >= n then
        Error (Printf.sprintf "node-remove: node index %d out of range" j)
      else
        with_library problem
          (Array.init (n - 1) (fun i ->
               problem.Problem.library.(if i < j then i else i + 1)))
          "node-remove"
  | Kmax_set k ->
      if k < 0 then Error "kmax-set: kmax must be non-negative" else Ok problem

let kmax_override = function Kmax_set k -> Some k | _ -> None

type footprint = {
  node_map : int -> int option;
  tables_dirty : node:int -> level:int -> bool;
  pfail_dirty : node:int -> level:int -> bool;
  eval_policy : [ `Keep | `Drop | `Remap_slack of float ];
  keep_probes : bool;
}

let footprint problem delta =
  let identity i = Some i in
  let nothing ~node:_ ~level:_ = false in
  let whole_node j ~node ~level:_ = node = j in
  let one_cell j l ~node ~level = node = j && level = l in
  let base =
    { node_map = identity;
      tables_dirty = nothing;
      pfail_dirty = nothing;
      eval_policy = `Keep;
      keep_probes = true }
  in
  match delta with
  | Deadline_set d -> { base with eval_policy = `Remap_slack d; keep_probes = false }
  | Deadline_scale f ->
      (* Must be the same float expression [apply] used, so the remapped
         slack is bit-identical to a fresh [deadline -. length]. *)
      { base with
        eval_policy =
          `Remap_slack (problem.Problem.app.Application.deadline_ms *. f);
        keep_probes = false }
  | Period_set _ | Period_scale _ | Gamma_set _ ->
      (* The stored re-execution choice maximizes the margin against the
         per-iteration budget, which reads gamma and the period. *)
      { base with eval_policy = `Drop; keep_probes = false }
  | Wcet_scale { node; _ } -> { base with tables_dirty = whole_node node }
  | Ser_scale { node; _ } -> { base with pfail_dirty = whole_node node }
  | Hversion_cost_set { node; level; _ } ->
      { base with tables_dirty = one_cell node level }
  | Hversion_wcet_set { node; level; _ } ->
      { base with tables_dirty = one_cell node level }
  | Hversion_pfail_set { node; level; _ } ->
      { base with pfail_dirty = one_cell node level }
  | Node_add _ -> base
  | Node_remove j ->
      { base with
        node_map = (fun i -> if i = j then None else if i > j then Some (i - 1) else Some i) }
  | Kmax_set _ ->
      (* SFP entries carry kmax in their key and survive; eval results
         bake the chosen re-execution counts in, so they go. *)
      { base with eval_policy = `Drop; keep_probes = false }

(* Wire codec.  A node-add delta carries Problem_io's library entry, so
   a node copied out of an exported problem file pastes straight in. *)

let to_json delta =
  let tag fields = Object (("class", String (class_name delta)) :: fields) in
  match delta with
  | Deadline_set d -> tag [ ("deadline_ms", Number d) ]
  | Deadline_scale f -> tag [ ("factor", Number f) ]
  | Period_set p -> tag [ ("period_ms", Number p) ]
  | Period_scale f -> tag [ ("factor", Number f) ]
  | Gamma_set g -> tag [ ("gamma", Number g) ]
  | Wcet_scale { node; factor } -> tag [ ("node", int node); ("factor", Number factor) ]
  | Ser_scale { node; factor } -> tag [ ("node", int node); ("factor", Number factor) ]
  | Hversion_cost_set { node; level; cost } ->
      tag [ ("node", int node); ("level", int level); ("cost", Number cost) ]
  | Hversion_wcet_set { node; level; proc; wcet_ms } ->
      tag
        [ ("node", int node); ("level", int level); ("proc", int proc);
          ("wcet_ms", Number wcet_ms) ]
  | Hversion_pfail_set { node; level; proc; pfail } ->
      tag
        [ ("node", int node); ("level", int level); ("proc", int proc);
          ("pfail", Number pfail) ]
  | Node_add nt -> tag [ ("node_type", Problem_io.node_type_to_json nt) ]
  | Node_remove j -> tag [ ("node", int j) ]
  | Kmax_set k -> tag [ ("kmax", int k) ]

let of_json json =
  let* cls = field "class" to_string_value json in
  (* Eager range validation: malformed wire deltas are rejected here,
     before any problem is in scope; bounds against a concrete instance
     (node/level/proc existence) remain [apply]'s job. *)
  let float_of name = field name to_float json in
  let positive_of name =
    let* v = float_of name in
    if Float.is_finite v && v > 0. then Ok v
    else
      Error
        (Printf.sprintf "%s: %s must be positive and finite (got %g)" cls name
           v)
  in
  let index_of ?(min = 0) name =
    let* v = field name to_int json in
    if v >= min then Ok v
    else Error (Printf.sprintf "%s: %s must be >= %d (got %d)" cls name min v)
  in
  match cls with
  | "deadline-set" ->
      let* d = positive_of "deadline_ms" in
      Ok (Deadline_set d)
  | "deadline-scale" ->
      let* f = positive_of "factor" in
      Ok (Deadline_scale f)
  | "period-set" ->
      let* p = positive_of "period_ms" in
      Ok (Period_set p)
  | "period-scale" ->
      let* f = positive_of "factor" in
      Ok (Period_scale f)
  | "gamma-set" ->
      let* g = float_of "gamma" in
      if Float.is_finite g && g > 0. && g < 1. then Ok (Gamma_set g)
      else Error (Printf.sprintf "gamma-set: gamma must lie in (0, 1) (got %g)" g)
  | "wcet-scale" ->
      let* node = index_of "node" in
      let* factor = positive_of "factor" in
      Ok (Wcet_scale { node; factor })
  | "ser-scale" ->
      let* node = index_of "node" in
      let* factor = positive_of "factor" in
      Ok (Ser_scale { node; factor })
  | "hversion-cost-set" ->
      let* node = index_of "node" in
      let* level = index_of ~min:1 "level" in
      let* cost = positive_of "cost" in
      Ok (Hversion_cost_set { node; level; cost })
  | "hversion-wcet-set" ->
      let* node = index_of "node" in
      let* level = index_of ~min:1 "level" in
      let* proc = index_of "proc" in
      let* wcet_ms = positive_of "wcet_ms" in
      Ok (Hversion_wcet_set { node; level; proc; wcet_ms })
  | "hversion-pfail-set" ->
      let* node = index_of "node" in
      let* level = index_of ~min:1 "level" in
      let* proc = index_of "proc" in
      let* pfail = float_of "pfail" in
      if Float.is_finite pfail && pfail >= 0. && pfail < 1. then
        Ok (Hversion_pfail_set { node; level; proc; pfail })
      else
        Error
          (Printf.sprintf
             "hversion-pfail-set: pfail must lie in [0, 1) (got %g)" pfail)
  | "node-add" ->
      let* nt =
        Result.map_error
          (fun e -> "node-add: " ^ e)
          (field "node_type" Problem_io.node_type_of_json json)
      in
      Ok (Node_add nt)
  | "node-remove" ->
      let* j = index_of "node" in
      Ok (Node_remove j)
  | "kmax-set" ->
      let* k = index_of "kmax" in
      Ok (Kmax_set k)
  | other -> Error (Printf.sprintf "delta: unknown class %S" other)
