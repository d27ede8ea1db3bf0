module Json = Ftes_util.Json
module Config = Ftes_core.Config
module Design_strategy = Ftes_core.Design_strategy
module Redundancy_opt = Ftes_core.Redundancy_opt
module Preflight = Ftes_analyze.Preflight
module Certificate = Ftes_analyze.Certificate
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
  | Analyzed of {
      preflight : Preflight.t;
      certificate : Certificate.t;
    }
  | Optimized of {
      solution : Design_strategy.solution option;
      recorded : Design_strategy.recorded option;
          (** the walk's recorded state — registry capital for later
              warm starts ([None] only if recording was impossible). *)
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
   cache into the walk.  Problems compare by their canonical v1 wire
   bytes (same convention as the daemon's cache bucket key). *)
let problem_bytes p =
  Json.to_string ~minify:true (Ftes_model.Problem_io.to_json p)

let base_matches (base : Design_strategy.recorded) ~config ~problem =
  base.Design_strategy.rec_config = config
  && problem_bytes base.Design_strategy.rec_problem = problem_bytes problem

let run ?cache ?recorded_of (req : Request.t) =
  let config = req.Request.config in
  let problem = req.Request.problem in
  match req.Request.command with
  | Request.Analyze ->
      let preflight =
        Preflight.run ~kmax:config.Config.kmax ~slack:config.Config.slack
          problem
      in
      Analyzed { preflight; certificate = Certificate.of_preflight preflight }
  | Request.Optimize -> (
      (* Self-certify: the verifier report on the emitted triple is
         part of the payload, so certify is always on here. *)
      let config = Config.with_certify true config in
      match req.Request.whatif with
      | None ->
          let record = ref None in
          let solution =
            Design_strategy.run ?cache ~record ~config problem
          in
          Optimized { solution; recorded = !record; reuse = None }
      | Some { Request.base_id; delta } ->
          let base =
            match base_id with
            | None ->
                (* One-shot what-if: walk the base cold in the same
                   request, then rerun the delta warm off it. *)
                Design_strategy.run_recorded ?cache ~config problem
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
                             (Printf.sprintf
                                "no recorded optimize walk under base_id %S"
                                id))
                    | Some base ->
                        if base_matches base ~config ~problem then base
                        else
                          raise
                            (Rejected
                               (Printf.sprintf
                                  "base_id %S was recorded under a different \
                                   problem or policy than this request"
                                  id))))
          in
          (match Design_strategy.rerun ~from:base delta with
          | Error msg -> raise (Rejected ("delta rejected: " ^ msg))
          | Ok (warm, reuse) ->
              Optimized
                { solution = warm.Design_strategy.rec_solution;
                  recorded = Some warm;
                  reuse = Some reuse }))
  | Request.Exact { limit } ->
      (* The proof is the point: always self-audit the emitted
         certificate, whatever the strategy's certify default.  The
         exact search builds its own memo tables, so [cache] does not
         apply. *)
      let config = Config.with_certify true config in
      let outcome = Bnb.solve ?limit ~config problem in
      let report =
        match outcome.Bnb.audit with
        | Some report -> report
        | None -> assert false (* certify is set above *)
      in
      Proved { outcome; report }
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
  | Analyzed { preflight; _ } ->
      if Preflight.feasible preflight then Response.Feasible
      else Response.Infeasible
  | Optimized { solution = None; _ } -> Response.No_solution
  | Optimized { solution = Some s; _ } -> (
      match s.Design_strategy.certificate with
      | Some report when not (Report.ok report) -> Response.Lint_failure
      | _ -> Response.Feasible)
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
  | Analyzed { preflight; certificate } ->
      report_json ~source ~strategy
        [ ("feasible", Json.Bool (Preflight.feasible preflight));
          ("analysis", Certificate_io.to_json certificate) ]
  | Optimized { solution = None; _ } ->
      report_json ~source ~strategy [ ("feasible", Json.Bool false) ]
  | Optimized { solution = Some s; _ } ->
      report_json ~source ~strategy
        (( "feasible", Json.Bool true )
         :: ( "explored",
              Json.int s.Design_strategy.explored )
         :: solution_fields s
        @
        match s.Design_strategy.certificate with
        | Some report -> [ ("report", Report.to_json report) ]
        | None -> [])
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
