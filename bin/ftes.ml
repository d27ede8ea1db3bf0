(* ftes — command-line driver for the fault-tolerant embedded-system
   design optimizer.

     ftes optimize        run MIN/MAX/OPT on a problem
     ftes analyze         pre-flight feasibility analysis, certified bounds
     ftes exact           prove the optimal design by branch-and-bound
     ftes pareto          cost/slack/margin Pareto frontier of feasible designs
     ftes whatif          warm re-optimization of a perturbed problem
     ftes lint            static verification of a problem and its
                          optimized design/schedule
     ftes serve           resident design-service daemon over JSONL
     ftes generate        generate a synthetic application
     ftes simulate        fault-injection campaign on an optimized design
     ftes worst-case      exact worst case by fault-scenario replay
     ftes checkpoint      checkpoint counts on top of an optimized design
     ftes experiment      reproduce a figure/table of the paper
     ftes profile         per-phase time/allocation breakdown of a run
     ftes export          write a built-in problem as JSON
     ftes campaign        sharded, resumable exploration campaigns
     ftes campaign-worker (internal) one campaign shard

   Every subcommand accepts --trace FILE (JSONL span trace),
   --metrics FILE (CSV metrics snapshot) and --seed.  The one-shot
   commands answer through [answer]: one request on the Ftes_driver.Exec
   path the daemon also serves, rendered as its JSON payload or as text. *)

open Cmdliner

module Config = Ftes_core.Config
module Design = Ftes_model.Design
module Design_strategy = Ftes_core.Design_strategy
module Redundancy_opt = Ftes_core.Redundancy_opt
module Workload = Ftes_gen.Workload
module Json = Ftes_util.Json
module Versioned_json = Ftes_util.Versioned_json
module Lifecycle = Ftes_driver.Lifecycle
module Request = Ftes_driver.Request
module Response = Ftes_driver.Response
module Exec = Ftes_driver.Exec
module Daemon = Ftes_driver.Daemon
module Verify = Ftes_verify.Verify
module Report = Ftes_verify.Report
module Subject = Ftes_verify.Subject

let fail fmt = Printf.ksprintf (fun s -> Error (`Msg s)) fmt

let ( let* ) = Result.bind

(* --- shared terms --- *)

let obs_term =
  let seed =
    let doc = "Root random seed." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let trace =
    let doc =
      "Write a JSONL span trace of the run to $(docv) (one JSON object \
       per completed span).  Tracing only observes: results are \
       bit-identical with and without it."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc)
  in
  let metrics =
    let doc =
      "Write a CSV snapshot of the metrics registry (counters, gauges, \
       latency histograms) to $(docv) when the command finishes."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"PATH" ~doc)
  in
  Term.(
    const (fun seed trace metrics -> { Lifecycle.seed; trace; metrics })
    $ seed $ trace $ metrics)

type target = { file : string option; example : string; strategy : string }

let target_term =
  let file =
    let doc =
      "Load the problem from a JSON file instead of a built-in example."
    in
    Arg.(value & opt (some string) None & info [ "file"; "f" ] ~docv:"PATH" ~doc)
  in
  let example =
    let doc = "Built-in problem: $(b,fig1), $(b,fig3) or $(b,cc)." in
    Arg.(value & opt string "fig1" & info [ "example"; "e" ] ~docv:"NAME" ~doc)
  in
  let strategy =
    let doc = "Design strategy: $(b,opt), $(b,min) or $(b,max)." in
    Arg.(value & opt string "opt" & info [ "strategy"; "s" ] ~docv:"NAME" ~doc)
  in
  Term.(
    const (fun file example strategy -> { file; example; strategy })
    $ file $ example $ strategy)

let format_term =
  Arg.(value
       & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
       & info [ "format" ] ~docv:"FMT"
       ~doc:"Report format: $(b,text) or $(b,json).")

(* --- the one-shot request path --- *)

(* Every command body runs inside [session]: the observability session
   around it (its files are flushed also on failure, which is why no
   command calls [Stdlib.exit]), and a file the command could not read
   or write reported as a usage error naming the path (status 124)
   instead of a crash. *)
let session ?aggregate_spans obs f =
  match Lifecycle.with_observability ?aggregate_spans obs f with
  | result -> result
  | exception (Sys_error msg | Fun.Finally_raised (Sys_error msg)) ->
      fail "%s" msg

let with_problem ?aggregate_spans obs target f =
  session ?aggregate_spans obs (fun () ->
      let problem =
        match target.file with
        | Some path -> Ftes_model.Problem_io.load path
        | None -> Request.problem_of_example target.example
      in
      match (problem, Request.config_of_strategy target.strategy) with
      | Error e, _ | _, Error e -> fail "%s" e
      | Ok problem, Ok config -> f problem config)

(* The CLI's subject spelling: the file path or example:NAME. *)
let source_of target =
  match target.file with
  | Some path -> path
  | None -> "example:" ^ target.example

let request_of ?whatif target command problem config =
  { Request.id = "cli"; command; strategy = target.strategy; config;
    problem; source = source_of target; whatif;
    origin =
      (match target.file with
      | Some _ -> `Inline
      | None -> `Example target.example) }

let wrote_to oc path = Printf.fprintf oc "wrote %s\n%!" path

(* Write the files a command exports beside its report (the --cert
   certificate of analyze and exact, the --csv/--json frontier of
   pareto) and return their paths. *)
let exports ~cert ~csv ~frontier = function
  | Exec.Analyzed { certificate; _ } ->
      Option.iter
        (fun path -> Ftes_analyze.Certificate_io.save path certificate)
        cert;
      Option.to_list cert
  | Exec.Proved { outcome; _ } ->
      Option.iter
        (fun path ->
          Ftes_analyze.Bnb_certificate_io.save path
            outcome.Ftes_bnb.Bnb.certificate)
        cert;
      Option.to_list cert
  | Exec.Frontiered { frontier = f; reference; _ } ->
      let archive = f.Design_strategy.archive in
      Option.iter
        (fun path ->
          Ftes_util.Csv.write_file path (Ftes_pareto.Frontier_io.to_csv archive))
        csv;
      Option.iter
        (fun path ->
          Versioned_json.save path
            (Ftes_pareto.Frontier_io.to_json ~reference archive))
        frontier;
      Option.to_list csv @ Option.to_list frontier
  | Exec.Optimized _ -> []

(* --- text renderings: pure functions of (request, outcome) --- *)

let failed_report report = if Report.ok report then "" else Report.to_text report

let bound_string v =
  if Float.is_finite v then Printf.sprintf "%.2f" v
  else "unbounded (no admissible assignment)"

let analysis_text (req : Request.t) (pf : Ftes_analyze.Preflight.t) =
  let module P = Ftes_analyze.Preflight in
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let problem = req.Request.problem in
  let name p =
    Ftes_model.Application.process_name problem.Ftes_model.Problem.app p
  in
  add "analyze %s (strategy %s)\n" req.Request.source req.Request.strategy;
  add "premises: deadline %.2f ms, kmax %d, %s slack accounting\n"
    pf.P.deadline_ms pf.P.kmax
    (if pf.P.reexec then "re-execution" else "non-re-execution");
  add "critical path   %.2f ms (%s)\n" pf.P.critical_path_ms
    (String.concat " -> " (List.map name pf.P.critical_path));
  add "total work      %.2f ms of %.2f ms library capacity\n"
    pf.P.total_work_ms pf.P.capacity_ms;
  add "cost lower bound %s (reliability-only: %s)\n"
    (bound_string pf.P.cost_lower_bound)
    (bound_string pf.P.sfp_cost_lower_bound);
  (match pf.P.witnesses with
  | [] -> add "verdict: feasible — no necessary condition is violated\n"
  | ws ->
      add "verdict: provably infeasible (%d witness%s)\n" (List.length ws)
        (if List.length ws = 1 then "" else "es");
      List.iter (fun w -> add "  - %s\n" (P.witness_to_string problem w)) ws);
  Buffer.contents b

let optimize_text ~gantt (req : Request.t) = function
  | None ->
      Printf.sprintf "%s: no schedulable & reliable design found\n"
        (Config.policy_name req.Request.config.Config.hardening)
  | Some (s : Design_strategy.solution) ->
      let problem = req.Request.problem in
      let r = s.Design_strategy.result in
      let design = r.Redundancy_opt.design in
      Format.asprintf "%a@." Ftes_model.Problem.pp problem
      ^ Printf.sprintf "%s solution (explored %d architectures):\n"
          (Config.policy_name req.Request.config.Config.hardening)
          s.Design_strategy.explored
      ^ Format.asprintf "%a@." (fun ppf () -> Design.pp ppf problem design) ()
      ^ Printf.sprintf "schedule length %.2f ms; reliability %.11f (goal %.6f)\n"
          r.Redundancy_opt.schedule_length
          s.Design_strategy.verdict.Ftes_sfp.Sfp.reliability_per_hour
          s.Design_strategy.verdict.Ftes_sfp.Sfp.goal
      ^
      if gantt then
        Ftes_sched.Schedule.to_gantt problem design s.Design_strategy.schedule
      else ""

let reuse_text (r : Ftes_whatif.Reuse.t) =
  let module R = Ftes_whatif.Reuse in
  Printf.sprintf
    "warm start (%s): replayed %d/%d steps; kept %d/%d SFP tables, %d/%d \
     evaluations, %d/%d probes\n"
    r.R.delta_class r.R.steps_replayed r.R.steps_total r.R.sfp_kept
    (r.R.sfp_kept + r.R.sfp_dropped)
    r.R.evals_kept
    (r.R.evals_kept + r.R.evals_dropped)
    r.R.probes_kept
    (r.R.probes_kept + r.R.probes_dropped)

let whatif_text (req : Request.t) (w : Request.whatif) reuse solution =
  Printf.sprintf "whatif %s (strategy %s, delta %s)\n" req.Request.source
    req.Request.strategy
    (Json.to_string ~minify:true (Ftes_whatif.Delta.to_json w.Request.delta))
  ^ Option.fold ~none:"" ~some:reuse_text reuse
  ^
  match solution with
  | None -> "no schedulable & reliable design under the delta\n"
  | Some (s : Design_strategy.solution) ->
      let r = s.Design_strategy.result in
      Printf.sprintf
        "perturbed optimum (explored %d architectures): cost %.2f, schedule \
         length %.2f ms, slack %.2f ms, margin %.2f decades\n"
        s.Design_strategy.explored r.Redundancy_opt.cost
        r.Redundancy_opt.schedule_length r.Redundancy_opt.slack
        r.Redundancy_opt.margin

let exact_text (req : Request.t) (cert : Ftes_analyze.Bnb_certificate.t) =
  let module C = Ftes_analyze.Bnb_certificate in
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let cost v =
    if Float.is_finite v then Printf.sprintf "%.2f" v else "unbounded"
  in
  add "exact %s (strategy %s)\n" req.Request.source req.Request.strategy;
  let c = cert.C.counters in
  add "search space    %.0f candidates, %d fully evaluated\n"
    cert.C.search_space c.C.evaluated;
  add
    "pruned          %d cost / %d infeasible / %d symmetry subtrees, %d \
     level vectors, %d mappings\n"
    c.C.pruned_cost c.C.pruned_arch c.C.pruned_symmetry c.C.pruned_levels
    c.C.pruned_mappings;
  add "heuristic cost  %s\n" (cost cert.C.heuristic_cost);
  add "optimal cost    %s (proven)\n" (cost cert.C.optimal_cost);
  (match C.gap cert with
  | Some gap -> add "optimality gap  %.2f%% of the optimum\n" (100.0 *. gap)
  | None -> ());
  (match cert.C.incumbent with
  | Some i ->
      add "schedule        %.2f ms worst case\n" i.C.schedule_length_ms;
      add "verdict: optimal design proven (certificate carries %d prune \
           premises)\n"
        (List.length cert.C.prunes)
  | None ->
      add "verdict: provably infeasible — the certified search closed the \
           whole design space without a feasible candidate\n");
  Buffer.contents b

let pareto_text (req : Request.t) (frontier : Design_strategy.frontier)
    (reference : Ftes_pareto.Archive.reference) =
  let module A = Ftes_pareto.Archive in
  let archive = frontier.Design_strategy.archive in
  let spec = A.spec_of archive in
  let pts = A.points archive in
  let stats = A.stats archive in
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "pareto %s (strategy %s)\n" req.Request.source req.Request.strategy;
  add "frontier: %d points over {%s} at eps %g (%d architectures explored)\n"
    (List.length pts)
    (Ftes_pareto.Objective.names spec.A.objectives)
    spec.A.eps frontier.Design_strategy.explored;
  (match frontier.Design_strategy.best with
  | Some s ->
      let r = s.Design_strategy.result in
      add
        "cheapest: cost %.2f, schedule length %.2f ms, slack %.2f ms, margin \
         %.2f decades\n"
        r.Redundancy_opt.cost r.Redundancy_opt.schedule_length
        r.Redundancy_opt.slack r.Redundancy_opt.margin
  | None -> add "no feasible design found\n");
  add "archive: %d boxes (%d inserted, %d dominated, %d evicted)\n"
    stats.A.boxes stats.A.inserted stats.A.dominated stats.A.evicted;
  add "hypervolume vs (cost %.2f, slack %.2f ms, margin %.2f): %.6g\n"
    reference.A.ref_cost reference.A.ref_slack reference.A.ref_margin
    (A.hypervolume archive ~reference);
  if pts <> [] then
    Buffer.add_string b
      (Ftes_util.Ascii_chart.scatter
         ~title:"frontier: architecture cost vs worst-case slack"
         ~x_label:"cost" ~y_label:"slack_ms"
         (List.map (fun (p : A.point) -> (p.A.cost, p.A.slack)) pts));
  Buffer.contents b

(* The text report of one outcome: the counterpart of [Exec.payload]. *)
let text_of ~gantt (req : Request.t) = function
  | Exec.Analyzed { preflight; _ } -> analysis_text req preflight
  | Exec.Optimized { solution; report; reuse; _ } ->
      (match req.Request.whatif with
      | None -> optimize_text ~gantt req solution
      | Some w -> whatif_text req w reuse solution)
      ^ Option.fold ~none:"" ~some:failed_report report
  | Exec.Proved { outcome; report } ->
      exact_text req outcome.Ftes_bnb.Bnb.certificate ^ failed_report report
  | Exec.Frontiered { frontier; reference; report } ->
      pareto_text req frontier reference ^ failed_report report

(* The default rendering: the JSON payload the daemon also serves, or
   the text report, with the status the outcome's verdict maps to. *)
let render ~gantt format req outcome =
  ( (match format with
    | `Json -> Json.to_string (Exec.payload req outcome) ^ "\n"
    | `Text -> text_of ~gantt req outcome),
    Response.exit_of_verdict (Exec.verdict outcome) )

(* Answer one request: resolve the problem and build the request, run
   it on the shared Exec path, write the command's files, print the
   rendering and request the exit status.  Text and JSON run the same
   computation; only the printing differs. *)
let answer ?cert ?csv ?frontier ?(wrote = wrote_to stderr)
    ?(render = render ~gantt:false) obs target format spec =
  with_problem obs target (fun problem config ->
      match spec with
      | Error e -> fail "%s" e
      | Ok (command, whatif) -> (
          let req = request_of ?whatif target command problem config in
          match Exec.run req with
          | exception Exec.Rejected msg -> fail "%s" msg
          | exception Ftes_bnb.Bnb.Budget_exhausted n ->
              fail
                "candidate budget exhausted after %d full evaluations (raise \
                 --limit); no optimality claim is made"
                n
          | outcome ->
              let written = exports ~cert ~csv ~frontier outcome in
              let text, code = render format req outcome in
              print_string text;
              flush stdout;
              List.iter wrote written;
              Lifecycle.request_exit code;
              Ok ()))

(* Offline audit of the certificate at [cert_path]: [attach] loads it
   (with any other exported artifact) onto the problem's subject, and
   the verifier re-derives every claim against the problem. *)
let audit obs target format ~cert_path attach =
  with_problem obs target (fun problem config ->
      let subject =
        { (Subject.of_problem problem) with
          Subject.slack = config.Config.slack;
          bus = config.Config.bus }
      in
      let load result =
        Result.map_error (Printf.sprintf "--audit %s: %s" cert_path) result
      in
      match attach ~load problem subject with
      | Error e -> fail "%s" e
      | Ok subject ->
          let source = source_of target in
          let report = Verify.run subject in
          (match format with
          | `Json ->
              print_endline
                (Json.to_string
                   (Exec.report_json ~source ~strategy:target.strategy
                      [ ("certificate", Json.String cert_path);
                        ("report", Report.to_json report) ]))
          | `Text ->
              Printf.printf "audit %s against %s (strategy %s)\n" cert_path
                source target.strategy;
              print_string (Report.to_text report));
          if not (Report.ok report) then
            Lifecycle.request_exit Lifecycle.Lint_failure;
          Ok ())

(* optimize *)

let run_optimize obs target format gantt =
  answer ~render:(render ~gantt) obs target format (Ok (Request.Optimize, None))

let optimize_cmd =
  let gantt =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Print the static schedule.")
  in
  let term =
    Term.(const run_optimize $ obs_term $ target_term $ format_term $ gantt)
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Optimize a built-in problem with MIN/MAX/OPT")
    Term.(term_result term)

(* whatif *)

let delta_of_flags delta_json delta_file =
  let module Delta = Ftes_whatif.Delta in
  match (delta_json, delta_file) with
  | None, None -> Error "give a delta: --delta JSON or --delta-file PATH"
  | Some _, Some _ -> Error "give either --delta or --delta-file, not both"
  | Some s, None ->
      Result.map_error
        (fun e -> "--delta: " ^ e)
        (Result.bind (Json.of_string s) Delta.of_json)
  | None, Some path ->
      Result.map_error
        (fun e -> "--delta-file " ^ e)
        (Versioned_json.load Delta.of_json path)

(* One-shot what-if: cold base walk plus warm rerun in a single
   request — the flow the daemon serves for a base_id-less delta
   request, and the JSON payload is byte-identical to an optimize of
   the perturbed problem. *)
let run_whatif obs target format delta_json delta_file =
  answer obs target format
    (Result.map
       (fun delta -> (Request.Optimize, Some { Request.base_id = None; delta }))
       (delta_of_flags delta_json delta_file))

let whatif_cmd =
  let delta_json =
    Arg.(value & opt (some string) None & info [ "delta" ] ~docv:"JSON"
         ~doc:"The perturbation as an inline JSON document, e.g. \
               $(b,{\"class\": \"deadline-scale\", \"factor\": 0.95}).")
  in
  let delta_file =
    Arg.(value & opt (some string) None & info [ "delta-file" ] ~docv:"PATH"
         ~doc:"Read the perturbation document from $(docv) instead.")
  in
  let term =
    Term.(
      const run_whatif $ obs_term $ target_term $ format_term $ delta_json
      $ delta_file)
  in
  Cmd.v
    (Cmd.info "whatif"
       ~doc:"Warm re-optimization of a perturbed problem (what-if query)"
       ~man:
         [ `S Manpage.s_description;
           `P "Optimizes the base problem while recording the walk, applies \
               a typed single-field delta (deadline, period, reliability \
               goal, per-node WCET/SER scaling, h-version table edits, \
               library add/remove, kmax), and re-optimizes the perturbed \
               problem warm: SFP node tables, candidate evaluations and \
               hardening probes that the delta's invalidation footprint \
               provably cannot touch are migrated instead of recomputed, \
               and the pre-flight report is re-checked rather than \
               re-derived when the delta can only tighten the instance.";
           `P "The reported solution is bit-identical to a cold $(b,ftes \
               optimize) of the perturbed problem — warm starting is a \
               pure speedup, never an approximation (the test-suite pins \
               this per delta class across every slack and bus policy).  \
               In $(b,--format json), the payload is byte-identical to \
               the cold optimize payload.  A resident daemon ($(b,ftes \
               serve)) answers the same queries incrementally via the \
               $(b,base_id)/$(b,delta) request fields, reusing the \
               recorded walk of an earlier request." ])
    Term.(term_result term)

(* serve *)

let run_serve obs batch max_problems audit =
  session obs (fun () ->
      if batch < 1 then fail "--batch must be positive"
      else if max_problems < 1 then fail "--max-problems must be positive"
      else begin
        let pool = Ftes_par.Pool.create () in
        let caches = Daemon.create_caches ~max_problems () in
        if audit then begin
          let responses, report = Daemon.audit ~pool ~caches () in
          Printf.printf "serve audit: %d responses\n" (List.length responses);
          print_string (Report.to_text report);
          if not (Report.ok report) then
            Lifecycle.request_exit Lifecycle.Lint_failure;
          Ok ()
        end
        else begin
          let stats =
            Daemon.serve ~pool ~caches ~max_batch:batch stdin stdout
          in
          Printf.eprintf
            "serve: %d requests (%d failed) in %d batches; %d warm problem \
             buckets (%d reuses)\n\
             %!"
            stats.Daemon.requests stats.Daemon.failed stats.Daemon.batches
            (Daemon.cache_problems caches)
            (Daemon.cache_hits caches);
          Ok ()
        end
      end)

let serve_cmd =
  let batch =
    Arg.(value & opt int 16 & info [ "batch" ] ~docv:"N"
         ~doc:"Answer requests in pool batches of up to $(docv) lines \
               ($(b,1) = strict request-by-request streaming).")
  in
  let max_problems =
    Arg.(value & opt int 64 & info [ "max-problems" ] ~docv:"N"
         ~doc:"Retain warm evaluation caches for at most $(docv) distinct \
               problem/policy buckets.")
  in
  let audit =
    Arg.(value & flag
         & info [ "audit" ]
         ~doc:"Self-test instead of serving: drive a built-in mixed batch \
               (including a malformed line) through the daemon path and \
               certify the emitted response stream with the verifier's \
               $(b,serve/*) rules; exits 3 on any failure.")
  in
  let term = Term.(const run_serve $ obs_term $ batch $ max_problems $ audit) in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Resident design service: JSONL requests in, certified JSONL \
             responses out"
       ~man:
         [ `S Manpage.s_description;
           `P "Reads one JSON request per line from standard input — a \
               problem (inline document or built-in example) plus a \
               command ($(b,analyze), $(b,optimize), $(b,exact), \
               $(b,pareto)) and its strategy/policy options — executes \
               them with bounded concurrency on the domain pool, and \
               writes one JSON response envelope per request to standard \
               output, in request order, each carrying the same certified \
               payload the one-shot subcommand would print plus \
               per-request telemetry (queue wait, wall time, cache \
               counters).";
           `P "Requests over the same problem and slack/bus/kmax policies \
               share one evaluation cache, so a warm daemon answers \
               repeated design questions far faster than one-shot runs — \
               with bit-identical payloads (the bench enforces this).  \
               Malformed or unknown-version lines produce a structured \
               $(b,error) response; the daemon never dies on bad input.  \
               Proven infeasibility is a per-response verdict here, not \
               an exit status: the process exits 0 after EOF."; ])
    Term.(term_result term)

(* generate *)

let run_generate obs index procs ser hpd dot output =
  session obs (fun () ->
      if procs <= 0 then fail "process count must be positive"
      else begin
        let spec =
          Workload.generate_spec ~seed:obs.Lifecycle.seed ~index
            ~n_processes:procs ()
        in
        let problem = Workload.problem_of_spec { Workload.ser; hpd } spec in
        Format.printf "%a@." Ftes_model.Problem.pp problem;
        Printf.printf "deadline %.2f ms, gamma %g, mu %.3f ms, %d edges\n"
          spec.Workload.deadline_ms spec.Workload.gamma spec.Workload.mu_ms
          (Ftes_model.Task_graph.n_edges spec.Workload.graph);
        if dot then
          print_string (Ftes_model.Task_graph.to_dot spec.Workload.graph);
        Option.iter
          (fun path ->
            Ftes_model.Problem_io.save path problem;
            wrote_to stderr path)
          output;
        Ok ()
      end)

let generate_cmd =
  let index =
    Arg.(value & opt int 0 & info [ "index" ] ~docv:"N" ~doc:"Application index.")
  in
  let procs =
    Arg.(value & opt int 20 & info [ "procs" ] ~docv:"N" ~doc:"Process count.")
  in
  let ser =
    Arg.(value & opt float 1e-11 & info [ "ser" ] ~docv:"RATE"
         ~doc:"Soft error rate per cycle at minimum hardening.")
  in
  let hpd =
    Arg.(value & opt float 0.25 & info [ "hpd" ] ~docv:"FRAC"
         ~doc:"Hardening performance degradation (fraction, e.g. 0.25).")
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Print the task graph in DOT form.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"PATH"
          ~doc:"Also write the generated problem instance as JSON to $(docv).")
  in
  let term =
    Term.(
      const run_generate $ obs_term $ index $ procs $ ser $ hpd $ dot $ output)
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a synthetic application")
    Term.(term_result term)

(* simulate, worst-case, checkpoint: tools over the optimized design *)

(* The design these tools start from is the one every other command
   gets: the optimize request on the shared Exec path. *)
let with_design obs target ~purpose f =
  with_problem obs target (fun problem config ->
      match Exec.run (request_of target Request.Optimize problem config) with
      | Exec.Optimized { solution = Some s; _ } -> f problem s
      | Exec.Optimized { solution = None; _ }
      | Exec.Analyzed _ | Exec.Proved _ | Exec.Frontiered _ ->
          fail "no feasible design to %s" purpose)

let solution_design (s : Design_strategy.solution) =
  s.Design_strategy.result.Redundancy_opt.design

let run_simulate obs target trials boost =
  with_design obs target ~purpose:"simulate" (fun problem s ->
      let design = solution_design s in
      (* The executor samples boosted probabilities, which must stay
         below 1: name the largest boost this design admits. *)
      let worst =
        List.fold_left
          (fun acc proc ->
            Float.max acc (Ftes_model.Design.pfail problem design ~proc))
          0.0
          (List.init (Ftes_model.Problem.n_processes problem) Fun.id)
      in
      if boost < 1.0 then fail "--boost %g: the boost must be at least 1" boost
      else if worst *. boost >= 1.0 then
        fail
          "--boost %g lifts a process failure probability to %.3g; lower \
           --boost below %.4g for this design"
          boost (worst *. boost) (1.0 /. worst)
      else begin
        let prng = Ftes_util.Prng.create obs.Lifecycle.seed in
        let campaign =
          Ftes_faultsim.Executor.run_campaign ~boost prng problem design ~trials
        in
        Printf.printf
          "trials %d (boost %.0fx)\n\
           observed system-failure rate  %.4e\n\
           SFP-predicted rate            %.4e\n\
           within-budget deadline misses %d\n\
           max within-budget makespan    %.2f ms\n"
          campaign.Ftes_faultsim.Executor.trials boost
          campaign.Ftes_faultsim.Executor.observed_failure_rate
          campaign.Ftes_faultsim.Executor.predicted_failure_rate
          campaign.Ftes_faultsim.Executor.deadline_misses
          campaign.Ftes_faultsim.Executor.max_makespan;
        Ok ()
      end)

let simulate_cmd =
  let trials =
    Arg.(value & opt int 50_000 & info [ "trials" ] ~docv:"N"
         ~doc:"Monte-Carlo iterations.")
  in
  let boost =
    Arg.(value & opt float 1000.0 & info [ "boost" ] ~docv:"X"
         ~doc:"Failure-probability boost for rare-event sampling; every \
               boosted process failure probability must stay below 1.")
  in
  let term =
    Term.(const run_simulate $ obs_term $ target_term $ trials $ boost)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Fault-injection campaign on an optimized design")
    Term.(term_result term)

(* experiment *)

let run_experiment obs figure apps =
  session obs (fun () ->
      let suite =
        lazy
          (Ftes_exp.Synthetic.create_suite ~count:apps ~seed:obs.Lifecycle.seed
             ())
      in
      let render_one artifact =
        print_string (Ftes_exp.Figures.render artifact);
        print_newline ()
      in
      match figure with
      | "6a" -> render_one (Ftes_exp.Figures.fig6a (Lazy.force suite)); Ok ()
      | "6b" ->
          List.iter render_one (Ftes_exp.Figures.fig6b (Lazy.force suite));
          Ok ()
      | "6c" -> render_one (Ftes_exp.Figures.fig6c (Lazy.force suite)); Ok ()
      | "6d" -> render_one (Ftes_exp.Figures.fig6d (Lazy.force suite)); Ok ()
      | "cc" ->
          print_string
            (Ftes_exp.Figures.render_cc (Ftes_exp.Figures.cc_study ()));
          Ok ()
      | other -> fail "unknown figure %S (try 6a, 6b, 6c, 6d, cc)" other)

let experiment_cmd =
  let figure =
    Arg.(value & opt string "6a" & info [ "figure" ] ~docv:"ID"
         ~doc:"Paper artifact: $(b,6a), $(b,6b), $(b,6c), $(b,6d) or $(b,cc).")
  in
  let apps =
    Arg.(value & opt int 150 & info [ "apps" ] ~docv:"N"
         ~doc:"Synthetic population size.")
  in
  let term = Term.(const run_experiment $ obs_term $ figure $ apps) in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce a figure or table of the paper")
    Term.(term_result term)

(* profile *)

module Metrics = Ftes_obs.Metrics
module Obs_report = Ftes_obs.Report
module Clock = Ftes_obs.Clock

let run_profile obs target csv =
  (* Span aggregation on regardless of --metrics: the breakdown is the
     point of the command. *)
  with_problem ~aggregate_spans:true obs target (fun problem config ->
      (* Zero the registry after problem loading so the snapshot
         describes the optimization run alone. *)
      Metrics.reset ();
      let t0 = Clock.now_ns () in
      let solution = Design_strategy.run ~config problem in
      let wall_ns = Clock.now_ns () - t0 in
      let snapshot = Metrics.snapshot () in
      Printf.printf "profile %s (strategy %s)\n" (source_of target)
        target.strategy;
      (match solution with
      | Some s ->
          Printf.printf
            "feasible: cost %.2f, schedule length %.2f ms, %d architectures \
             explored\n\n"
            s.Design_strategy.result.Redundancy_opt.cost
            s.Design_strategy.result.Redundancy_opt.schedule_length
            s.Design_strategy.explored
      | None -> print_string "no feasible design found\n\n");
      if csv then
        List.iter
          (fun row -> print_endline (String.concat "," row))
          (Obs_report.profile_to_csv ~wall_ns snapshot)
      else print_string (Obs_report.profile_to_text ~wall_ns snapshot);
      (* Certify the snapshot with the obs rules of the verifier; an
         inconsistent registry means the numbers above are not
         trustworthy. *)
      let report =
        Verify.run ~rules:Ftes_verify.Obs_rules.all
          (Subject.with_metrics (Subject.of_problem problem) snapshot)
      in
      if not (Report.ok report) then begin
        print_string (Report.to_text report);
        Lifecycle.request_exit Lifecycle.Lint_failure
      end;
      Ok ())

let profile_cmd =
  let csv =
    Arg.(value & flag
         & info [ "csv" ] ~doc:"Emit the breakdown as CSV instead of a table.")
  in
  let term = Term.(const run_profile $ obs_term $ target_term $ csv) in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Per-phase time and allocation breakdown of an optimization run"
       ~man:
         [ `S Manpage.s_description;
           `P "Runs the selected design strategy with span aggregation \
               enabled and prints a per-phase breakdown (calls, total time, \
               share of wall-clock, allocation) recovered from the \
               $(b,span.*) metrics.  The snapshot is then certified by the \
               verifier's $(b,obs/*) rules; an inconsistent registry exits \
               with status 3." ])
    Term.(term_result term)

(* worst-case *)

let run_worst_case obs target limit =
  with_design obs target ~purpose:"analyze" (fun problem s ->
      let design = solution_design s in
      let space = Ftes_faultsim.Scenarios.count_scenarios design in
      if space > float_of_int limit then
        fail "%.3g fault scenarios exceed --limit %d" space limit
      else begin
        let r = Ftes_faultsim.Scenarios.worst_case ~limit problem design in
        Printf.printf
          "scenarios replayed          %d\n\
           shared bound (paper's SL)   %.2f ms\n\
           exact worst case            %.2f ms\n\
           conservative bound          %.2f ms\n\
           shared bound optimistic?    %s\n"
          r.Ftes_faultsim.Scenarios.scenarios
          r.Ftes_faultsim.Scenarios.shared_bound_ms
          r.Ftes_faultsim.Scenarios.exact_worst_ms
          r.Ftes_faultsim.Scenarios.conservative_bound_ms
          (if Ftes_faultsim.Scenarios.optimism_certificate r then "yes"
           else "no");
        Ok ()
      end)

let worst_case_cmd =
  let limit =
    Arg.(value & opt int 200_000 & info [ "limit" ] ~docv:"N"
         ~doc:"Maximum number of fault scenarios to replay.")
  in
  let term = Term.(const run_worst_case $ obs_term $ target_term $ limit) in
  Cmd.v
    (Cmd.info "worst-case"
       ~doc:"Exact worst-case analysis by exhaustive fault-scenario replay")
    Term.(term_result term)

(* checkpoint *)

let run_checkpoint obs target save_ms =
  with_design obs target ~purpose:"checkpoint" (fun problem s ->
      let plain = s.Design_strategy.result.Redundancy_opt.schedule_length in
      let kappa, ckpt =
        Ftes_core.Checkpoint_opt.optimize ?save_ms problem (solution_design s)
      in
      Printf.printf
        "plain re-execution SL      %.2f ms\n\
         checkpointed SL            %.2f ms (%.1f%% shorter)\n\
         checkpoints per process    [%s]\n"
        plain ckpt
        (100.0 *. (plain -. ckpt) /. plain)
        (String.concat ";" (Array.to_list (Array.map string_of_int kappa)));
      Ok ())

let checkpoint_cmd =
  let save_ms =
    Arg.(value & opt (some float) None & info [ "save" ] ~docv:"MS"
         ~doc:"Checkpoint save cost in ms (default: half the recovery \
               overhead).")
  in
  let term = Term.(const run_checkpoint $ obs_term $ target_term $ save_ms) in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"Optimize checkpoint counts on top of an optimized design")
    Term.(term_result term)

(* lint *)

(* Lint renders the optimize outcome as the verifier report on the
   emitted triple; with no feasible design, as the problem rules alone.
   Exit status 3 marks an error-severity diagnostic. *)
let render_lint format (req : Request.t) outcome =
  let feasible, report =
    match outcome with
    | Exec.Optimized { report = Some report; _ } -> (true, report)
    | Exec.Optimized { report = None; _ }
    | Exec.Analyzed _ | Exec.Proved _ | Exec.Frontiered _ ->
        (false, Verify.run (Subject.of_problem req.Request.problem))
  in
  ( (match format with
    | `Json ->
        Json.to_string
          (Exec.report_json ~source:req.Request.source
             ~strategy:req.Request.strategy
             [ ("feasible", Json.Bool feasible);
               ("report", Report.to_json report) ])
        ^ "\n"
    | `Text ->
        Printf.sprintf "lint %s (strategy %s)%s\n" req.Request.source
          req.Request.strategy
          (if feasible then "" else " — no feasible design, problem rules only")
        ^ Report.to_text report),
    if Report.ok report then Lifecycle.Success else Lifecycle.Lint_failure )

let run_lint obs target format =
  answer ~render:render_lint obs target format (Ok (Request.Optimize, None))

let lint_cmd =
  let term = Term.(const run_lint $ obs_term $ target_term $ format_term) in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically verify a problem and its optimized design/schedule"
       ~man:
         [ `S Manpage.s_description;
           `P "Runs the $(b,Ftes_verify) rule registry over the problem and \
               the design/schedule emitted by the selected strategy: \
               structural sanity, independently re-derived schedule \
               soundness (precedence, overlap, recovery slack, deadline) \
               and the numerical contracts of the SFP analysis.  Exits \
               with status 3 when any error-severity diagnostic fires." ])
    Term.(term_result term)

(* analyze *)

let run_analyze obs target format cert_path audit_path frontier_path =
  match audit_path with
  | None ->
      answer ?cert:cert_path obs target format (Ok (Request.Analyze, None))
  | Some path ->
      audit obs target format ~cert_path:path (fun ~load problem subject ->
          let* cert = load (Ftes_analyze.Certificate_io.load path) in
          let subject = Subject.with_certificate subject cert in
          match frontier_path with
          | None -> Ok subject
          | Some fpath ->
              Versioned_json.load (Ftes_pareto.Frontier_io.of_json ~problem) fpath
              |> Result.map (Subject.with_archive subject)
              |> Result.map_error (( ^ ) "--frontier "))

let analyze_cmd =
  let cert_path =
    Arg.(value & opt (some string) None & info [ "cert" ] ~docv:"PATH"
         ~doc:"Write the analysis as a versioned certificate to $(docv).")
  in
  let audit_path =
    Arg.(value & opt (some string) None & info [ "audit" ] ~docv:"PATH"
         ~doc:"Audit an existing certificate against the problem instead \
               of analyzing: every bound is re-derived offline (no \
               optimizer runs) and cross-checked by the verifier's \
               $(b,analyze/*) rules.")
  in
  let frontier_path =
    Arg.(value & opt (some string) None & info [ "frontier" ] ~docv:"PATH"
         ~doc:"With $(b,--audit), also load an exported frontier and \
               cross-check the certified cost lower bound against every \
               point (and the frontier itself via the $(b,pareto/*) \
               rules).")
  in
  let term =
    Term.(
      const run_analyze $ obs_term $ target_term $ format_term $ cert_path
      $ audit_path $ frontier_path)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Pre-flight feasibility analysis with certified lower bounds"
       ~man:
         [ `S Manpage.s_description;
           `P "Derives necessary conditions every feasible design must \
               satisfy — per-task WCET and re-execution-slack bounds \
               against the deadline, the critical path and total work \
               under per-process minimum WCETs, per-assignment \
               reliability admissibility within the re-execution bound, \
               and a cost lower bound — without running any optimizer.  \
               Every violated condition is reported with a concrete \
               witness and the command exits with status 3 (a proof of \
               infeasibility); otherwise the derived bounds are printed \
               and the design strategy may consume them as pruning \
               oracles.";
           `P "$(b,--cert) exports the analysis as a versioned JSON \
               certificate; $(b,--audit) re-derives and cross-checks a \
               previously exported certificate offline, exiting 3 when \
               any claim fails to verify." ])
    Term.(term_result term)

(* exact *)

let run_exact obs target format limit cert_path audit_path =
  match audit_path with
  | None ->
      (* Certify is always on for exact: the proof is the point. *)
      answer ?cert:cert_path obs target format
        (Ok (Request.Exact { limit }, None))
  | Some path ->
      audit obs target format ~cert_path:path (fun ~load _problem subject ->
          load (Ftes_analyze.Bnb_certificate_io.load path)
          |> Result.map (Subject.with_bnb_certificate subject))

let exact_cmd =
  let limit =
    Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N"
         ~doc:"Abort (with an error, not a weaker claim) after $(docv) \
               full candidate evaluations.")
  in
  let cert_path =
    Arg.(value & opt (some string) None & info [ "cert" ] ~docv:"PATH"
         ~doc:"Write the optimality certificate to $(docv).")
  in
  let audit_path =
    Arg.(value & opt (some string) None & info [ "audit" ] ~docv:"PATH"
         ~doc:"Audit an existing optimality certificate against the \
               problem instead of searching: the incumbent is re-costed, \
               re-scheduled and re-checked against the reliability goal, \
               every prune premise is re-derived, and the premises must \
               tile the architecture lattice ($(b,bnb/*) rules).")
  in
  let term =
    Term.(
      const run_exact $ obs_term $ target_term $ format_term $ limit
      $ cert_path $ audit_path)
  in
  Cmd.v
    (Cmd.info "exact"
       ~doc:"Prove the optimal hardening design by branch-and-bound"
       ~man:
         [ `S Manpage.s_description;
           `P "Runs the exact best-first branch-and-bound over \
               architectures, hardening levels and mappings, seeded with \
               the greedy walk of the selected strategy, and reports the \
               proven optimum together with the heuristic's optimality \
               gap.  Every pruned subtree leaves a re-derivable premise \
               in a machine-checkable certificate, which is audited \
               in-process by the verifier's $(b,bnb/*) rules before \
               anything is printed.";
           `P "Exits with status 3 when the problem is proven infeasible \
               (the certificate then covers the whole design space) or \
               when any audit fails.  $(b,--cert) exports the \
               certificate; $(b,--audit) re-checks a previously exported \
               one offline without running the search.";
           `P "The search is exponential: it closes the built-in examples \
               fig1 and fig3 and synthetic instances of a dozen processes \
               on a few nodes, but the cruise controller ($(b,--example \
               cc), 32 processes) is beyond it and runs for minutes, in \
               hundreds of MB, without printing anything.  Pass \
               $(b,--limit) to bound such a run; it then stops with an \
               error instead of a weaker claim." ])
    Term.(term_result term)

(* pareto *)

let run_pareto obs target format eps objectives csv_path json_path ref_cost =
  let spec =
    match Ftes_pareto.Objective.parse_list objectives with
    | Error e -> Error ("--objectives: " ^ e)
    | Ok _ when not (Float.is_finite eps) || eps < 0.0 ->
        Error "--eps must be finite and non-negative"
    | Ok objectives ->
        Ok (Request.Pareto { eps; objectives; ref_cost }, None)
  in
  (* The text report lists the exports on stdout; JSON keeps stdout for
     the payload. *)
  let wrote =
    match format with `Text -> wrote_to stdout | `Json -> wrote_to stderr
  in
  answer ?csv:csv_path ?frontier:json_path ~wrote obs target format spec

let pareto_cmd =
  let eps =
    Arg.(value & opt float 0.0 & info [ "eps" ] ~docv:"EPS"
         ~doc:"ε-dominance grid resolution; 0 keeps the exact frontier.")
  in
  let objectives =
    Arg.(value & opt string "cost,slack,margin"
         & info [ "objectives" ] ~docv:"LIST"
         ~doc:"Comma-separated objectives among $(b,cost) (minimized), \
               $(b,slack) and $(b,margin) (maximized).")
  in
  let csv_path =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"PATH"
         ~doc:"Export the frontier as CSV to $(docv).")
  in
  let json_path =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH"
         ~doc:"Export the frontier (with the hypervolume and its reference \
               point) as JSON to $(docv).")
  in
  let ref_cost =
    Arg.(value & opt (some float) None & info [ "ref-cost" ] ~docv:"COST"
         ~doc:"Cost coordinate of the hypervolume reference corner \
               (default: the full library at its priciest levels, plus \
               one).")
  in
  let term =
    Term.(
      const run_pareto $ obs_term $ target_term $ format_term $ eps
      $ objectives $ csv_path $ json_path $ ref_cost)
  in
  Cmd.v
    (Cmd.info "pareto"
       ~doc:"Explore the cost / slack / reliability-margin Pareto frontier"
       ~man:
         [ `S Manpage.s_description;
           `P "Runs the selected design strategy while recording every \
               deadline- and reliability-feasible candidate into an \
               ε-dominance archive over up to three objectives: \
               architecture cost (minimized), worst-case schedule slack \
               and SFP margin in -log10 decades (both maximized).  The \
               archive's cheapest point is bit-identical to the \
               single-objective $(b,ftes optimize) solution.";
           `P "Prints a frontier summary with the hypervolume indicator \
               (against a fixed worst-corner reference point) and an ASCII \
               cost-vs-slack scatter chart; $(b,--csv) and $(b,--json) \
               export the frontier with a versioned schema that \
               round-trips through the reader.  The emitted archive is \
               then certified by the verifier's $(b,pareto/*) rules \
               (every point feasible, recorded objectives re-derived, \
               mutual non-domination, cheapest point equal to the OPT \
               cost); any failure exits with status 3." ])
    Term.(term_result term)

(* export *)

let run_export obs example output =
  session obs (fun () ->
      match Request.problem_of_example example with
      | Error e -> fail "%s" e
      | Ok problem ->
          Ftes_model.Problem_io.save output problem;
          wrote_to stdout output;
          Ok ())

let export_cmd =
  let example =
    let doc = "Built-in problem: $(b,fig1), $(b,fig3) or $(b,cc)." in
    Arg.(value & opt string "fig1" & info [ "example"; "e" ] ~docv:"NAME" ~doc)
  in
  let output =
    Arg.(value & opt string "problem.json" & info [ "output"; "o" ] ~docv:"PATH"
         ~doc:"Destination file.")
  in
  let term = Term.(const run_export $ obs_term $ example $ output) in
  Cmd.v
    (Cmd.info "export" ~doc:"Write a built-in problem instance as JSON")
    Term.(term_result term)

(* campaign *)

module Manifest = Ftes_campaign.Manifest
module Campaign_checkpoint = Ftes_campaign.Checkpoint
module Runner = Ftes_campaign.Runner
module Merge = Ftes_campaign.Merge

let dir_term =
  Arg.(required
       & opt (some string) None
       & info [ "dir"; "d" ] ~docv:"DIR" ~doc:"Campaign directory.")

(* List options accept blanks around their commas ("min, opt"). *)
let list_of conv =
  Arg.list
    (Arg.conv
       ((fun text -> Arg.conv_parser conv (String.trim text)),
        Arg.conv_printer conv))

(* Upper case first: the help shows a value's last spelling. *)
let policy_conv =
  Arg.enum
    [ ("MIN", Config.Fixed_min); ("MAX", Config.Fixed_max);
      ("OPT", Config.Optimize); ("min", Config.Fixed_min);
      ("max", Config.Fixed_max); ("opt", Config.Optimize) ]

let shard_progress (c : Campaign_checkpoint.t) n_cells =
  Printf.sprintf "%d/%d cells" (List.length c.Campaign_checkpoint.cells) n_cells

let print_campaign_summary (s : Runner.summary) =
  Printf.printf
    "campaign: %d shards — %d already complete, %d executed (%d resumed), \
     %d failed\n"
    s.Runner.shards s.Runner.skipped s.Runner.executed s.Runner.resumed
    (List.length s.Runner.failed)

let drive_campaign ~manifest ~dir ~jobs =
  let on_progress ~completed ~total ~eta_s =
    match eta_s with
    | Some eta ->
        Printf.printf "campaign: %d/%d shards complete (ETA %.0f s)\n%!"
          completed total eta
    | None -> Printf.printf "campaign: %d/%d shards complete\n%!" completed total
  in
  let summary =
    Runner.run_processes ~jobs ~on_progress ~exe:Sys.executable_name ~manifest
      ~dir ()
  in
  print_campaign_summary summary;
  match summary.Runner.failed with
  | [] -> Ok ()
  | failed ->
      fail "%s"
        (String.concat "; "
           (List.map
              (fun (shard, reason) ->
                Printf.sprintf "shard %d: %s" shard reason)
              failed))

let run_campaign_run obs dir apps shards jobs sers hpds policies eps =
  session obs (fun () ->
      if Sys.file_exists (Manifest.path ~dir) then
        fail "%s already holds a campaign; use resume" dir
      else
        match
          Manifest.make ~sers ~hpds ~policies ~eps ~apps
            ~seed:obs.Lifecycle.seed ~shards ()
        with
        | exception Invalid_argument msg -> fail "%s" msg
        | manifest ->
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            Manifest.save ~dir manifest;
            Printf.printf "campaign %s: %d apps, %d shards, %d cells \
                           (manifest %s)\n%!"
              dir apps shards (Manifest.n_cells manifest)
              (Manifest.fingerprint manifest);
            drive_campaign ~manifest ~dir ~jobs)

let run_campaign_resume obs dir jobs =
  session obs (fun () ->
      match Manifest.load ~dir with
      | Error e -> fail "%s" e
      | Ok manifest -> drive_campaign ~manifest ~dir ~jobs)

let run_campaign_status obs dir =
  session obs (fun () ->
      match Manifest.load ~dir with
      | Error e -> fail "%s" e
      | Ok manifest ->
          let n_cells = Manifest.n_cells manifest in
          let states = Runner.scan ~manifest ~dir in
          let complete = ref 0 in
          Printf.printf "campaign %s: %d apps, %d shards, %d cells, \
                         manifest %s\n"
            dir manifest.Manifest.apps manifest.Manifest.shards n_cells
            (Manifest.fingerprint manifest);
          Array.iteri
            (fun shard state ->
              let lo, hi = Manifest.shard_range manifest shard in
              let status =
                match state with
                | Runner.Complete c ->
                    incr complete;
                    "complete (" ^ shard_progress c n_cells ^ ")"
                | Runner.Partial c -> "partial (" ^ shard_progress c n_cells ^ ")"
                | Runner.Missing -> "missing"
                | Runner.Corrupt e -> "corrupt: " ^ e
              in
              Printf.printf "  shard %d [%d, %d): %s\n" shard lo hi status)
            states;
          Printf.printf "%d/%d shards complete; merged.json %s\n" !complete
            (Array.length states)
            (if Sys.file_exists (Filename.concat dir Merge.filename) then
               "present"
             else "absent");
          Ok ())

(* Self-certification of a merge: re-read every document from disk and
   run the campaign/* rules over the raw JSON, so what is certified is
   what a later consumer will actually parse. *)
let certify_merge ~dir ~manifest =
  let read_json_file = Versioned_json.load Result.ok in
  let* manifest_doc = read_json_file (Manifest.path ~dir) in
  let* checkpoints =
    List.fold_left
      (fun acc shard ->
        let* acc = acc in
        let path = Campaign_checkpoint.path ~dir shard in
        let* doc = read_json_file path in
        Ok ((Filename.basename path, doc) :: acc))
      (Ok [])
      (List.init manifest.Manifest.shards Fun.id)
  in
  let* merged_doc = read_json_file (Filename.concat dir Merge.filename) in
  let* problem = Request.problem_of_example "fig1" in
  let subject =
    Subject.with_campaign ~merged:merged_doc
      (Subject.of_problem problem)
      ~manifest:manifest_doc
      ~checkpoints:(List.rev checkpoints)
  in
  Ok (Verify.run ~rules:Ftes_verify.Campaign_rules.all subject)

let run_campaign_merge obs dir =
  session obs (fun () ->
      match Manifest.load ~dir with
      | Error e -> fail "%s" e
      | Ok manifest -> (
          let checkpoints =
            List.fold_left
              (fun acc shard ->
                let* acc = acc in
                let* c = Campaign_checkpoint.load ~manifest ~dir shard in
                Ok (c :: acc))
              (Ok [])
              (List.init manifest.Manifest.shards Fun.id)
          in
          match
            Result.bind checkpoints (fun cs ->
                Merge.of_checkpoints ~manifest (List.rev cs))
          with
          | Error e -> fail "%s" e
          | Ok merged -> (
              Merge.save ~dir merged;
              Printf.printf "merged %d cells over %d applications — \
                             fingerprint %s\n"
                (List.length merged.Merge.cells) manifest.Manifest.apps
                (Merge.fingerprint merged);
              Printf.printf "wrote %s\n" (Filename.concat dir Merge.filename);
              match certify_merge ~dir ~manifest with
              | Error e -> fail "%s" e
              | Ok report ->
                  print_string (Report.to_text report);
                  if not (Report.ok report) then
                    Lifecycle.request_exit Lifecycle.Lint_failure;
                  Ok ())))

(* The deliberate mid-run kill of the resume tests: exit abruptly,
   bypassing every finalizer, exactly like a real kill — the checkpoint
   written before [on_cell] fired is what resume finds. *)
let kill_plan () =
  match Sys.getenv_opt "FTES_CAMPAIGN_KILL_AFTER" with
  | None -> None
  | Some n -> (
      match int_of_string_opt n with
      | None -> None
      | Some after ->
          let shard =
            Option.bind
              (Sys.getenv_opt "FTES_CAMPAIGN_KILL_SHARD")
              int_of_string_opt
          in
          Some (after, shard))

let run_campaign_worker obs dir shard =
  session obs (fun () ->
      match Manifest.load ~dir with
      | Error e -> fail "%s" e
      | Ok manifest ->
          let fresh = ref 0 in
          let on_cell ~cell_index:_ ~n_cells:_ =
            incr fresh;
            match kill_plan () with
            | Some (after, target)
              when !fresh >= after
                   && (target = None || target = Some shard) ->
                Stdlib.exit 130
            | _ -> ()
          in
          (match Runner.run_shard ~on_cell ~manifest ~dir shard with
          | Error e -> fail "%s" e
          | Ok outcome ->
              Printf.printf "shard %d: %d fresh cells%s\n" shard
                outcome.Runner.fresh_cells
                (if outcome.Runner.resumed then " (resumed)" else "");
              Ok ()))

let campaign_cmd =
  let jobs_term =
    Arg.(value & opt int 2
         & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Maximum concurrent worker processes.")
  in
  let run_cmd =
    let apps =
      Arg.(value & opt int 24 & info [ "apps" ] ~docv:"N"
           ~doc:"Population size (first half 20-process, second half \
                 40-process applications).")
    in
    let shards =
      Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N"
           ~doc:"Number of disjoint application-range shards.")
    in
    let sers =
      Arg.(value & opt (list_of float) [ 1e-11 ] & info [ "sers" ] ~docv:"LIST"
           ~doc:"Comma-separated SER grid axis.")
    in
    let hpds =
      Arg.(value & opt (list_of float) [ 0.25 ] & info [ "hpds" ] ~docv:"LIST"
           ~doc:"Comma-separated HPD grid axis.")
    in
    let policies =
      Arg.(value
           & opt (list_of policy_conv) [ Config.Fixed_min; Config.Optimize ]
           & info [ "policies" ] ~docv:"LIST"
           ~doc:"Comma-separated hardening policies among $(b,min), \
                 $(b,max), $(b,opt).")
    in
    let eps =
      Arg.(value & opt float 0.0 & info [ "eps" ] ~docv:"EPS"
           ~doc:"Frontier archive resolution; 0 keeps the exact frontier.")
    in
    let term =
      Term.(
        const run_campaign_run $ obs_term $ dir_term $ apps $ shards
        $ jobs_term $ sers $ hpds $ policies $ eps)
    in
    Cmd.v
      (Cmd.info "run" ~doc:"Create a campaign and run every shard")
      Term.(term_result term)
  in
  let resume_cmd =
    let term =
      Term.(const run_campaign_resume $ obs_term $ dir_term $ jobs_term)
    in
    Cmd.v
      (Cmd.info "resume"
         ~doc:"Re-run only the incomplete shards of an existing campaign")
      Term.(term_result term)
  in
  let status_cmd =
    let term = Term.(const run_campaign_status $ obs_term $ dir_term) in
    Cmd.v
      (Cmd.info "status" ~doc:"Show per-shard checkpoint state")
      Term.(term_result term)
  in
  let merge_cmd =
    let term = Term.(const run_campaign_merge $ obs_term $ dir_term) in
    Cmd.v
      (Cmd.info "merge"
         ~doc:"Merge completed shards and certify with the campaign/* rules")
      Term.(term_result term)
  in
  Cmd.group
    (Cmd.info "campaign"
       ~doc:"Sharded, checkpointed, resumable exploration campaigns"
       ~man:
         [ `S Manpage.s_description;
           `P "A campaign partitions the Section 7 synthetic population \
               into disjoint application-range shards, fans them out to \
               worker processes ($(b,ftes campaign-worker)), and streams \
               per-cell results into atomically-written per-shard \
               checkpoint files.  A killed campaign is resumed with \
               $(b,ftes campaign resume), which re-runs only the \
               incomplete shards; $(b,merge) then combines the \
               checkpoints into $(b,merged.json) — bit-identical to a \
               sequential run of the same manifest — and certifies the \
               result with the verifier's $(b,campaign/*) rules." ])
    [ run_cmd; resume_cmd; status_cmd; merge_cmd ]

let campaign_worker_cmd =
  let shard =
    Arg.(required & opt (some int) None
         & info [ "shard" ] ~docv:"N" ~doc:"Shard index to compute.")
  in
  let term =
    Term.(const run_campaign_worker $ obs_term $ dir_term $ shard)
  in
  Cmd.v
    (Cmd.info "campaign-worker"
       ~doc:"(internal) compute one campaign shard in this process")
    Term.(term_result term)

let () =
  let doc =
    "design optimization of fault-tolerant embedded systems with hardened \
     processors (DATE 2009 reproduction)"
  in
  let info = Cmd.info "ftes" ~version:"1.0.0" ~doc in
  exit
    (Lifecycle.finish
       (Cmd.eval
          (Cmd.group info
             [ optimize_cmd; analyze_cmd; pareto_cmd; whatif_cmd; serve_cmd;
               generate_cmd; simulate_cmd; experiment_cmd; profile_cmd;
               export_cmd; worst_case_cmd; checkpoint_cmd; lint_cmd;
               exact_cmd; campaign_cmd; campaign_worker_cmd ])))
