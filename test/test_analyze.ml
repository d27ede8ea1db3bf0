(* Tests for the pre-flight analyzer: soundness of every bound against
   exhaustive and heuristic optima, the certificate round-trip, and
   mutation tests asserting that corrupted certificates trip the
   matching analyze/* audit rule. *)

module Preflight = Ftes_analyze.Preflight
module Certificate_io = Ftes_analyze.Certificate_io
module Problem = Ftes_model.Problem
module Application = Ftes_model.Application
module Config = Ftes_core.Config
module Design_strategy = Ftes_core.Design_strategy
module Redundancy_opt = Ftes_core.Redundancy_opt
module Exhaustive = Ftes_core.Exhaustive
module Archive = Ftes_pareto.Archive
module Verify = Ftes_verify.Verify
module Report = Ftes_verify.Report
module Subject = Ftes_verify.Subject

(* Rebuild a problem with its deadline (and period) scaled, keeping
   everything else; the lever all infeasibility tests pull. *)
let with_deadline_factor problem factor =
  let app = problem.Problem.app in
  let scaled =
    Application.make ~name:app.Application.name
      ~process_names:app.Application.process_names
      ~period_ms:(app.Application.period_ms *. factor)
      ~graph:app.Application.graph
      ~deadline_ms:(app.Application.deadline_ms *. factor)
      ~gamma:app.Application.gamma
      ~recovery_overhead_ms:app.Application.recovery_overhead_ms ()
  in
  Problem.make ~app:scaled ~library:problem.Problem.library

(* The default (shared-slack) policy bucket. *)
let preflight problem = Preflight.run ~reexec:true problem

(* Toy instances small enough for [Exhaustive.run]. *)
let small_problem ?(n = 5) seed = Helpers.small_problem ~n seed

(* --- analyzer verdicts --- *)

let test_feasible_examples () =
  List.iter
    (fun (name, problem) ->
      let pf = preflight problem in
      Alcotest.(check bool)
        (name ^ ": no witness on a solvable instance")
        true pf.Preflight.feasible;
      Alcotest.(check bool)
        (name ^ ": finite cost lower bound")
        true
        (Float.is_finite pf.Preflight.cost_lower_bound))
    [ ("fig1", Ftes_cc.Fig_examples.fig1_problem ());
      ("cc", Ftes_cc.Cruise_control.problem ()) ]

let test_infeasible_by_deadline () =
  let problem =
    with_deadline_factor (Ftes_cc.Fig_examples.fig1_problem ()) 0.05
  in
  let pf = preflight problem in
  Alcotest.(check bool) "witnesses found" true (pf.Preflight.witnesses <> []);
  Alcotest.(check bool) "not feasible" false pf.Preflight.feasible;
  (* The proof must be real: no design can exist. *)
  Alcotest.(check bool) "strategy agrees" true
    (Design_strategy.run ~config:Config.default problem = None);
  (* Witness strings render without raising. *)
  List.iter
    (fun w -> ignore (Preflight.witness_to_string problem w))
    pf.Preflight.witnesses

let test_counters_move () =
  let c = Ftes_obs.Metrics.counter "analyze.bounds_derived" in
  let before = Ftes_obs.Metrics.counter_value c in
  ignore (preflight (Ftes_cc.Fig_examples.fig1_problem ()));
  Alcotest.(check bool) "bounds_derived bumped" true
    (Ftes_obs.Metrics.counter_value c > before)

(* --- lower-bound soundness (satellite: unit checks vs Exhaustive) --- *)

let test_cost_lb_vs_exhaustive () =
  List.iter
    (fun seed ->
      let problem = small_problem seed in
      let sfp_lb = Ftes_oracle.Bound.cost_lower_bound problem in
      let pf = preflight problem in
      match Exhaustive.run ~config:Config.default problem with
      | None -> ()
      | Some e ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: Bound lb %g <= optimum %g" seed sfp_lb
               e.Redundancy_opt.cost)
            true
            (sfp_lb <= e.Redundancy_opt.cost +. 1e-9);
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: preflight lb %g <= optimum %g" seed
               pf.Preflight.cost_lower_bound e.Redundancy_opt.cost)
            true
            (pf.Preflight.cost_lower_bound <= e.Redundancy_opt.cost +. 1e-9);
          Alcotest.(check bool) "deadline-aware lb dominates sfp lb" true
            (pf.Preflight.cost_lower_bound >= sfp_lb -. 1e-9))
    [ 1; 2; 3 ]

let test_cost_lb_on_cc () =
  (* cc is far beyond Exhaustive; the heuristic cost still upper-bounds
     the true optimum, so the bound must stay below it. *)
  let problem = Ftes_cc.Cruise_control.problem () in
  let lb = Ftes_oracle.Bound.cost_lower_bound problem in
  let pf = preflight problem in
  match Design_strategy.run ~config:Config.default problem with
  | None -> Alcotest.fail "cc has a feasible design"
  | Some s ->
      let cost = s.Design_strategy.result.Redundancy_opt.cost in
      Alcotest.(check bool)
        (Printf.sprintf "Bound lb %g <= heuristic %g" lb cost)
        true (lb <= cost +. 1e-9);
      Alcotest.(check bool)
        (Printf.sprintf "preflight lb %g <= heuristic %g"
           pf.Preflight.cost_lower_bound cost)
        true
        (pf.Preflight.cost_lower_bound <= cost +. 1e-9)

(* --- qcheck soundness properties (satellite) --- *)

let qcheck_infeasible_sound =
  QCheck.Test.make ~count:25
    ~name:"analyzer-infeasible implies no exhaustive design"
    QCheck.(pair (int_bound 1000) (int_bound 12))
    (fun (seed, tenths) ->
      let factor = 0.3 +. (0.1 *. float_of_int tenths) in
      let problem = with_deadline_factor (small_problem ~n:4 seed) factor in
      let pf = preflight problem in
      pf.Preflight.feasible
      || Exhaustive.run ~config:Config.default problem = None)

let qcheck_lb_below_frontier =
  QCheck.Test.make ~count:15
    ~name:"lower bound never exceeds a feasible frontier cost"
    QCheck.(int_bound 1000)
    (fun seed ->
      let problem = small_problem seed in
      let pf = preflight problem in
      let frontier =
        Design_strategy.run_frontier ~config:Config.default problem
      in
      List.for_all
        (fun (p : Archive.point) ->
          pf.Preflight.cost_lower_bound <= p.Archive.cost +. 1e-9)
        (Archive.points frontier.Design_strategy.archive))

(* --- certificate round-trip --- *)

let test_certificate_roundtrip () =
  List.iter
    (fun problem ->
      let cert = preflight problem in
      let s = Certificate_io.to_string cert in
      match Certificate_io.of_string s with
      | Error e -> Alcotest.failf "round-trip failed: %s" e
      | Ok cert' ->
          Alcotest.(check string) "identical rendering" s
            (Certificate_io.to_string cert'))
    [ Ftes_cc.Fig_examples.fig1_problem ();
      with_deadline_factor (Ftes_cc.Fig_examples.fig1_problem ()) 0.05;
      Ftes_cc.Cruise_control.problem () ]

let test_certificate_versioning () =
  let cert = preflight (Ftes_cc.Fig_examples.fig1_problem ()) in
  let json = Certificate_io.to_json cert in
  let strip = function
    | Ftes_util.Json.Object fields ->
        Ftes_util.Json.Object
          (List.filter (fun (k, _) -> k <> "schema_version") fields)
    | j -> j
  in
  let warned = ref false in
  (match
     Certificate_io.of_json ~on_warning:(fun _ -> warned := true) (strip json)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "v0 document rejected: %s" e);
  Alcotest.(check bool) "v0 deprecation warning" true !warned;
  let bump = function
    | Ftes_util.Json.Object fields ->
        Ftes_util.Json.Object
          (List.map
             (fun (k, v) ->
               if k = "schema_version" then (k, Ftes_util.Json.Number 99.0)
               else (k, v))
             fields)
    | j -> j
  in
  match Certificate_io.of_json (bump json) with
  | Ok _ -> Alcotest.fail "unknown version accepted"
  | Error e -> Helpers.check_contains "version error" e "schema_version 99"

(* --- offline audit: acceptance and mutation tests --- *)

let audit ?design problem cert =
  let subject =
    match design with
    | None -> Subject.of_problem problem
    | Some d -> Subject.of_design problem d
  in
  Verify.run (Subject.with_certificate subject cert)

let fired report = Report.fired_rules report

let test_audit_accepts () =
  List.iter
    (fun problem ->
      let cert = preflight problem in
      let report = audit problem cert in
      Alcotest.(check bool) "clean audit" true (Report.ok report);
      Alcotest.(check bool) "analyze rules ran" true
        (List.mem "analyze/bounds" report.Report.rules_run))
    [ Ftes_cc.Fig_examples.fig1_problem ();
      with_deadline_factor (Ftes_cc.Fig_examples.fig1_problem ()) 0.05 ]

let test_audit_skipped_without_certificate () =
  let report =
    Verify.run (Subject.of_problem (Ftes_cc.Fig_examples.fig1_problem ()))
  in
  Alcotest.(check bool) "analyze rules skipped" true
    (List.mem "analyze/bounds" report.Report.rules_skipped)

(* Mutation harness: corrupt one certificate field, expect exactly the
   matching rule family to fire. *)
let expect_rule problem mutate rule_id label =
  let cert = preflight problem in
  let report = audit problem (mutate cert) in
  Alcotest.(check bool) (label ^ ": audit fails") false (Report.ok report);
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s fired (got: %s)" label rule_id
       (String.concat ", " (fired report)))
    true
    (List.mem rule_id (fired report))

let test_mutation_lower_bound () =
  expect_rule
    (Ftes_cc.Fig_examples.fig1_problem ())
    (fun cert ->
      { cert with
        Preflight.cost_lower_bound =
          cert.Preflight.cost_lower_bound +. 7.0 })
    "analyze/bounds" "inflated cost lower bound"

let test_mutation_verdict () =
  expect_rule
    (with_deadline_factor (Ftes_cc.Fig_examples.fig1_problem ()) 0.05)
    (fun cert -> { cert with Preflight.feasible = true })
    "analyze/verdict" "flipped verdict"

let test_mutation_critical_path () =
  expect_rule
    (Ftes_cc.Fig_examples.fig1_problem ())
    (fun cert ->
      { cert with
        Preflight.critical_path_ms =
          cert.Preflight.critical_path_ms /. 2.0 })
    "analyze/bounds" "halved critical path"

let test_mutation_threshold () =
  expect_rule
    (Ftes_cc.Fig_examples.fig1_problem ())
    (fun cert ->
      { cert with Preflight.threshold = cert.Preflight.threshold *. 10.0 })
    "analyze/schema" "inflated threshold premise"

let test_mutation_kneed () =
  expect_rule
    (Ftes_cc.Fig_examples.fig1_problem ())
    (fun cert ->
      let kneed = Array.map (Array.map Array.copy) cert.Preflight.kneed in
      kneed.(0).(0).(0) <- kneed.(0).(0).(0) + 1;
      { cert with Preflight.kneed })
    "analyze/bounds" "tampered kneed table"

let test_mutation_witness_evidence () =
  expect_rule
    (with_deadline_factor (Ftes_cc.Fig_examples.fig1_problem ()) 0.05)
    (fun cert ->
      { cert with
        Preflight.witnesses =
          List.map
            (function
              | Preflight.Critical_path { length_ms; path } ->
                  Preflight.Critical_path
                    { length_ms = length_ms /. 2.0; path }
              | w -> w)
            cert.Preflight.witnesses })
    "analyze/verdict" "tampered witness evidence"

(* Out-of-range process indices in decoded witnesses are reported, not
   rendered: a critical path through process 999 used to escape the
   audit as an index exception. *)
let test_mutation_witness_index () =
  let problem =
    with_deadline_factor (Ftes_cc.Fig_examples.fig1_problem ()) 0.05
  in
  let retarget f cert =
    { cert with Preflight.witnesses = List.map f cert.Preflight.witnesses }
  in
  expect_rule problem
    (retarget (function
      | Preflight.Critical_path { length_ms; _ } ->
          Preflight.Critical_path { length_ms; path = [ 0; 999 ] }
      | w -> w))
    "analyze/verdict" "critical path through an unknown process";
  (* A task witness moved to an unknown process: the set diagnostic
     names the process, so the two sets read differently. *)
  let moved = ref false in
  let report =
    audit problem
      (retarget
         (function
           | Preflight.Task_wcet { min_wcet_ms; _ } when not !moved ->
               moved := true;
               Preflight.Task_wcet { proc = 999; min_wcet_ms }
           | w -> w)
         (preflight problem))
  in
  Alcotest.(check bool) "a task witness was moved" true !moved;
  let messages =
    List.map
      (fun d -> d.Ftes_verify.Diagnostic.detail)
      (Report.errors report)
  in
  Alcotest.(check bool)
    (Printf.sprintf "set diagnostic names process 999 (got: %s)"
       (String.concat " | " messages))
    true
    (List.exists
       (fun m -> Helpers.contains m "task-wcet(process 999)")
       messages)

let test_lower_bound_vs_design () =
  (* A certificate claiming a bound above an achieved design cost must
     trip the cross-check even when the claim is internally plausible:
     the design anchors it. *)
  let problem = Ftes_cc.Fig_examples.fig1_problem () in
  match Design_strategy.run ~config:Config.default problem with
  | None -> Alcotest.fail "fig1 has a feasible design"
  | Some s ->
      let design = s.Design_strategy.result.Redundancy_opt.design in
      let cost = s.Design_strategy.result.Redundancy_opt.cost in
      let cert = preflight problem in
      let lying = { cert with Preflight.cost_lower_bound = cost +. 5.0 } in
      let report = audit ~design problem lying in
      Alcotest.(check bool) "audit fails" false (Report.ok report);
      Alcotest.(check bool) "analyze/lower-bound fired" true
        (List.mem "analyze/lower-bound" (fired report))

let () =
  Alcotest.run "ftes_analyze"
    [ ( "preflight",
        [ Alcotest.test_case "solvable examples pass" `Quick
            test_feasible_examples;
          Alcotest.test_case "impossible deadline is proven" `Quick
            test_infeasible_by_deadline;
          Alcotest.test_case "counters move" `Quick test_counters_move ] );
      ( "lower_bounds",
        [ Alcotest.test_case "vs exhaustive optima" `Slow
            test_cost_lb_vs_exhaustive;
          Alcotest.test_case "vs cc heuristic" `Slow test_cost_lb_on_cc;
          QCheck_alcotest.to_alcotest qcheck_infeasible_sound;
          QCheck_alcotest.to_alcotest qcheck_lb_below_frontier ] );
      ( "certificate",
        [ Alcotest.test_case "round-trip" `Quick test_certificate_roundtrip;
          Alcotest.test_case "versioning" `Quick test_certificate_versioning ]
      );
      ( "audit",
        [ Alcotest.test_case "accepts honest certificates" `Quick
            test_audit_accepts;
          Alcotest.test_case "skipped without certificate" `Quick
            test_audit_skipped_without_certificate;
          Alcotest.test_case "mutation: lower bound" `Quick
            test_mutation_lower_bound;
          Alcotest.test_case "mutation: verdict" `Quick test_mutation_verdict;
          Alcotest.test_case "mutation: critical path" `Quick
            test_mutation_critical_path;
          Alcotest.test_case "mutation: threshold" `Quick
            test_mutation_threshold;
          Alcotest.test_case "mutation: kneed table" `Quick
            test_mutation_kneed;
          Alcotest.test_case "mutation: witness evidence" `Quick
            test_mutation_witness_evidence;
          Alcotest.test_case "mutation: witness index" `Quick
            test_mutation_witness_index;
          Alcotest.test_case "lower bound vs design" `Quick
            test_lower_bound_vs_design ] ) ]
