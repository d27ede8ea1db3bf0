module Json = Ftes_util.Json
module Config = Ftes_core.Config
module Design_strategy = Ftes_core.Design_strategy
module Redundancy_opt = Ftes_core.Redundancy_opt
module Preflight = Ftes_analyze.Preflight
module Certificate_io = Ftes_analyze.Certificate_io
module Bnb = Ftes_bnb.Bnb
module Bnb_certificate = Ftes_analyze.Bnb_certificate
module Bnb_certificate_io = Ftes_analyze.Bnb_certificate_io
module Archive = Ftes_pareto.Archive
module Objective = Ftes_pareto.Objective
module Frontier_io = Ftes_pareto.Frontier_io
module Verify = Ftes_verify.Verify
module Report = Ftes_verify.Report
module Subject = Ftes_verify.Subject

exception Rejected of string

type outcome =
  | Analyzed of Preflight.t
  | Optimized of {
      solution : Design_strategy.solution option;
      report : Report.t option;
          (** the verifier report on the solution's triple. *)
      recorded : Design_strategy.recorded;
          (** the walk's recorded state — registry capital for later
              warm starts. *)
      reuse : Ftes_whatif.Reuse.t option;
          (** present exactly when this outcome was warm-started. *)
    }
  | Proved of { outcome : Bnb.outcome; report : Report.t }
  | Frontiered of {
      frontier : Design_strategy.frontier;
      reference : Archive.reference;
      report : Report.t;
    }

(* --- JSON report envelope (moved from bin/cli_driver) --- *)

(* Shared by every subcommand that prints a machine-readable report:
   a versioned envelope naming the subject and the strategy, with
   command-specific fields appended. *)
let report_schema_version = 1

let report_json ~source ~strategy fields =
  Json.Object
    (Ftes_util.Versioned_json.field report_schema_version
     :: ("subject", Json.String source)
     :: ("strategy", Json.String strategy)
     :: fields)

(* Worst-corner reference for the hypervolume indicator: every node at
   its priciest hardening level plus one cost unit, zero slack, zero
   margin — dominated by any design with actual headroom. *)
let default_reference problem =
  let lib = Ftes_model.Problem.n_library problem in
  let total = ref 0.0 in
  for j = 0 to lib - 1 do
    let worst = ref 0.0 in
    for level = 1 to Ftes_model.Problem.levels problem j do
      worst :=
        Float.max !worst (Ftes_model.Problem.cost problem ~node:j ~level)
    done;
    total := !total +. !worst
  done;
  { Archive.ref_cost = !total +. 1.0; ref_slack = 0.0; ref_margin = 0.0 }

(* --- execution --- *)

(* A warm start is only sound against a base walk over the same
   problem under the same config: anything else would splice a foreign
   cache into the walk.  Problems compare by {!Problem_io.equal}, the
   identity the daemon's cache buckets use too. *)
let base_matches (base : Design_strategy.recorded) ~config ~problem =
  base.Design_strategy.rec_config = config
  && Ftes_model.Problem_io.equal base.Design_strategy.rec_problem problem

(* The walk a what-if request reruns from: walked cold in the same
   request (one-shot what-if) or resolved by [base_id] in the resident
   registry. *)
let whatif_base ?cache ?recorded_of ~config problem = function
  | None -> Design_strategy.run_recorded ?cache ~config problem
  | Some id -> (
      match recorded_of with
      | None ->
          raise
            (Rejected
               "base_id needs a resident session (no recorded-walk \
                registry here)")
      | Some find -> (
          match find id with
          | None ->
              raise
                (Rejected
                   (Printf.sprintf "no recorded optimize walk under base_id %S"
                      id))
          | Some base ->
              if base_matches base ~config ~problem then base
              else
                raise
                  (Rejected
                     (Printf.sprintf
                        "base_id %S was recorded under a different problem \
                         or policy than this request"
                        id))))

let audit_exact ~config problem (outcome : Bnb.outcome) =
  let base =
    match outcome.Bnb.best with
    | Some r -> Subject.of_design problem r.Redundancy_opt.design
    | None -> Subject.of_problem problem
  in
  Verify.run
    (Subject.with_bnb_certificate
       { base with
         Subject.slack = config.Config.slack;
         bus = config.Config.bus }
       outcome.Bnb.certificate)

let run ?cache ?recorded_of
    ?(preflight =
      fun ~kmax ~reexec problem -> Preflight.run ~kmax ~reexec problem)
    (req : Request.t) =
  let config = req.Request.config in
  let problem = req.Request.problem in
  match req.Request.command with
  | Request.Analyze ->
      Analyzed
        (preflight ~kmax:config.Config.kmax
           ~reexec:(Preflight.reexec_of_slack config.Config.slack)
           problem)
  | Request.Optimize ->
      let recorded, reuse =
        match req.Request.whatif with
        | None -> (Design_strategy.run_recorded ?cache ~config problem, None)
        | Some { Request.base_id; delta } -> (
            let base =
              whatif_base ?cache ?recorded_of ~config problem base_id
            in
            match Design_strategy.rerun ~from:base delta with
            | Error msg -> raise (Rejected ("delta rejected: " ^ msg))
            | Ok (warm, reuse) -> (warm, Some reuse))
      in
      let solution = recorded.Design_strategy.rec_solution in
      (* Self-certify: the verifier report on the emitted triple is part
         of the payload.  The walk's own SFP tables go along, so the
         SFP-cache contract rule checks them against fresh
         recomputation. *)
      let report =
        Option.map
          (fun (s : Design_strategy.solution) ->
            Verify.certify ~slack:config.Config.slack ~bus:config.Config.bus
              ~sfp_tables:s.Design_strategy.sfp_tables
              recorded.Design_strategy.rec_problem
              s.Design_strategy.result.Redundancy_opt.design
              s.Design_strategy.schedule)
          solution
      in
      Optimized { solution; report; recorded; reuse }
  | Request.Exact { limit } ->
      (* The proof is the point: always audit the emitted certificate.
         The exact search builds its own memo tables, so [cache] does
         not apply. *)
      let outcome = Bnb.solve ?limit ~config problem in
      Proved { outcome; report = audit_exact ~config problem outcome }
  | Request.Pareto { eps; objectives; ref_cost } ->
      let spec = Archive.spec ~objectives ~eps () in
      let frontier = Design_strategy.run_frontier ?cache ~spec ~config problem in
      let reference =
        let d = default_reference problem in
        match ref_cost with
        | Some c -> { d with Archive.ref_cost = c }
        | None -> d
      in
      (* Self-certify the emitted frontier with the verifier's pareto
         rules; the cheapest-point anchor only applies when cost is
         among the objectives (otherwise the ε-grid is free to coarsen
         the cost axis away). *)
      let opt_cost =
        if List.mem Objective.Cost objectives then
          Option.map
            (fun (s : Design_strategy.solution) ->
              s.Design_strategy.result.Redundancy_opt.cost)
            frontier.Design_strategy.best
        else None
      in
      let subject =
        Subject.with_archive ?opt_cost
          { (Subject.of_problem problem) with
            Subject.slack = config.Config.slack;
            bus = config.Config.bus }
          frontier.Design_strategy.archive
      in
      let report = Verify.run ~rules:Ftes_verify.Pareto_rules.all subject in
      Frontiered { frontier; reference; report }

(* --- verdict --- *)

let verdict = function
  | Analyzed preflight ->
      if preflight.Preflight.feasible then Response.Feasible
      else Response.Infeasible
  | Optimized { solution = None; _ } -> Response.No_solution
  | Optimized { report = Some report; _ } when not (Report.ok report) ->
      Response.Lint_failure
  | Optimized _ -> Response.Feasible
  | Proved { outcome; report } ->
      if not (Report.ok report) then Response.Lint_failure
      else if outcome.Bnb.best = None then Response.Infeasible
      else Response.Feasible
  | Frontiered { frontier; report; _ } ->
      if not (Report.ok report) then Response.Lint_failure
      else if frontier.Design_strategy.best = None then Response.No_solution
      else Response.Feasible

(* --- payload builders --- *)

let design_json (d : Ftes_model.Design.t) =
  Json.Object
    [ ("members", Json.ints d.Ftes_model.Design.members);
      ("levels", Json.ints d.Ftes_model.Design.levels);
      ("reexecs", Json.ints d.Ftes_model.Design.reexecs);
      ("mapping", Json.ints d.Ftes_model.Design.mapping) ]

let solution_fields (s : Design_strategy.solution) =
  let r = s.Design_strategy.result in
  let v = s.Design_strategy.verdict in
  [ ("cost", Json.Number r.Redundancy_opt.cost);
    ("schedule_length_ms", Json.Number r.Redundancy_opt.schedule_length);
    ("slack_ms", Json.Number r.Redundancy_opt.slack);
    ("margin_log10", Json.Number r.Redundancy_opt.margin);
    ( "reliability_per_hour",
      Json.Number v.Ftes_sfp.Sfp.reliability_per_hour );
    ("goal", Json.Number v.Ftes_sfp.Sfp.goal);
    ("design", design_json r.Redundancy_opt.design) ]

let payload (req : Request.t) outcome =
  let source = req.Request.source in
  let strategy = req.Request.strategy in
  match outcome with
  | Analyzed preflight ->
      report_json ~source ~strategy
        [ ("feasible", Json.Bool preflight.Preflight.feasible);
          ("analysis", Certificate_io.to_json preflight) ]
  | Optimized { solution = None; _ } ->
      report_json ~source ~strategy [ ("feasible", Json.Bool false) ]
  | Optimized { solution = Some s; report; _ } ->
      report_json ~source ~strategy
        (( "feasible", Json.Bool true )
         :: ("explored", Json.int s.Design_strategy.explored)
         :: solution_fields s
        @ Option.fold ~none:[]
            ~some:(fun report -> [ ("report", Report.to_json report) ])
            report)
  | Proved { outcome; report } ->
      let cert = outcome.Bnb.certificate in
      report_json ~source ~strategy
        [ ( "feasible",
            Json.Bool (cert.Bnb_certificate.incumbent <> None) );
          ("optimal_cost", Json.number_or_null cert.Bnb_certificate.optimal_cost);
          ( "heuristic_cost",
            Json.number_or_null cert.Bnb_certificate.heuristic_cost );
          ( "gap",
            match Bnb_certificate.gap cert with
            | Some g -> Json.Number g
            | None -> Json.Null );
          ("counters", Bnb_certificate_io.counters_to_json cert.Bnb_certificate.counters);
          ("certificate", Bnb_certificate_io.to_json cert);
          ("report", Report.to_json report) ]
  | Frontiered { frontier; reference; report } ->
      let best =
        match frontier.Design_strategy.best with
        | None -> Json.Null
        | Some s ->
            let r = s.Design_strategy.result in
            Json.Object
              [ ("cost", Json.Number r.Redundancy_opt.cost);
                ( "schedule_length_ms",
                  Json.Number r.Redundancy_opt.schedule_length );
                ("slack_ms", Json.Number r.Redundancy_opt.slack);
                ("margin_log10", Json.Number r.Redundancy_opt.margin) ]
      in
      report_json ~source ~strategy
        [ ( "feasible",
            Json.Bool (frontier.Design_strategy.best <> None) );
          ( "explored",
            Json.int frontier.Design_strategy.explored );
          ("best", best);
          ( "frontier",
            Frontier_io.to_json ~reference frontier.Design_strategy.archive );
          ("report", Report.to_json report) ]
