(* Tests for the independent static verifier: the registry, the
   reporters, acceptance of every scheduler-produced schedule, and
   mutation tests asserting that corrupted inputs trip the matching
   rule id. *)

module Verify = Ftes_verify.Verify
module Report = Ftes_verify.Report
module Rule = Ftes_verify.Rule
module Subject = Ftes_verify.Subject
module Diagnostic = Ftes_verify.Diagnostic
module Scheduler = Ftes_sched.Scheduler
module Schedule = Ftes_sched.Schedule
module Bus = Ftes_sched.Bus
module Design = Ftes_model.Design
module Problem = Ftes_model.Problem
module Json = Ftes_util.Json

(* Schedule soundness is independent of whether the design is *good*:
   random designs legitimately miss deadlines and reliability goals, so
   the acceptance properties exclude exactly those two verdict rules. *)
let soundness_rules = Verify.except [ "sched/deadline"; "sfp/goal" ]

let base () =
  let problem = Ftes_cc.Fig_examples.fig1_problem () in
  let design = Ftes_cc.Fig_examples.fig4a problem in
  let schedule = Scheduler.schedule problem design in
  (problem, design, schedule)

(* --- registry --- *)

let test_registry_ids_unique () =
  let ids = List.map (fun r -> r.Rule.id) Verify.registry in
  Alcotest.(check int) "no duplicate ids"
    (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_registry_size () =
  Alcotest.(check bool) "at least 20 rules" true
    (List.length Verify.registry >= 20)

let test_find () =
  Alcotest.(check bool) "finds sched/slack" true
    (Verify.find "sched/slack" <> None);
  Alcotest.(check bool) "unknown id" true (Verify.find "no/such-rule" = None)

let test_skip_without_design () =
  let problem = Ftes_cc.Fig_examples.fig1_problem () in
  let report = Verify.run (Subject.of_problem problem) in
  Alcotest.(check bool) "problem-only run is clean" true (Report.ok report);
  Alcotest.(check bool) "design rules skipped" true
    (List.mem "design/mapping" report.Report.rules_skipped);
  Alcotest.(check bool) "schedule rules skipped" true
    (List.mem "sched/slack" report.Report.rules_skipped);
  Alcotest.(check bool) "graph rules ran" true
    (List.mem "graph/acyclic" report.Report.rules_run)

(* --- reporters --- *)

let test_text_report () =
  let problem, design, schedule = base () in
  let report = Verify.certify problem design schedule in
  let text = Report.to_text report in
  Helpers.check_contains "text" text "20 rules run";
  Helpers.check_contains "text" text "all checks passed"

let test_json_report_roundtrip () =
  let problem, design, schedule = base () in
  let report = Verify.certify problem design schedule in
  let json_text = Json.to_string (Report.to_json report) in
  match Json.of_string json_text with
  | Error e -> Alcotest.failf "report JSON does not parse: %s" e
  | Ok json ->
      (match Result.bind (Json.member "ok" json) Json.to_bool with
      | Ok ok -> Alcotest.(check bool) "ok field" true ok
      | Error e -> Alcotest.failf "no ok field: %s" e);
      (match Result.bind (Json.member "errors" json) Json.to_int with
      | Ok errors -> Alcotest.(check int) "errors field" 0 errors
      | Error e -> Alcotest.failf "no errors field: %s" e)

let test_json_reports_diagnostics () =
  let problem, design, schedule = base () in
  let corrupted = { schedule with Schedule.length = 0.0 } in
  let report = Verify.certify problem design corrupted in
  Alcotest.(check bool) "not ok" false (Report.ok report);
  let json = Report.to_json report in
  match Result.bind (Json.member "diagnostics" json) Json.to_list with
  | Ok (_ :: _) -> ()
  | Ok [] -> Alcotest.fail "no diagnostics in the JSON report"
  | Error e -> Alcotest.failf "bad JSON report: %s" e

(* --- certification wiring --- *)

let test_exec_optimize_certificate () =
  let req =
    match
      Ftes_driver.Request.make Ftes_driver.Request.Optimize (`Example "fig1")
    with
    | Ok req -> req
    | Error e -> Alcotest.fail e
  in
  match Ftes_driver.Exec.run req with
  | Ftes_driver.Exec.Optimized { solution = Some _; report = Some report; _ }
    ->
      Alcotest.(check bool) "emitted design certifies" true (Report.ok report);
      Alcotest.(check bool) "walk's SFP tables checked" true
        (List.mem "sfp/cache" report.Report.rules_run)
  | Ftes_driver.Exec.Optimized { solution = Some _; report = None; _ } ->
      Alcotest.fail "an optimize outcome must carry a report"
  | _ -> Alcotest.fail "fig1 should have a feasible design"

(* --- acceptance of scheduler output --- *)

let random_design problem seed =
  let prng = Ftes_util.Prng.create seed in
  let lib = Problem.n_library problem in
  let m = 1 + Ftes_util.Prng.int prng lib in
  let pool = Array.init lib Fun.id in
  Ftes_util.Prng.shuffle prng pool;
  let members = Array.sub pool 0 m in
  let levels =
    Array.map
      (fun j -> 1 + Ftes_util.Prng.int prng (Problem.levels problem j))
      members
  in
  let reexecs = Array.init m (fun _ -> Ftes_util.Prng.int prng 4) in
  let mapping =
    Array.init (Problem.n_processes problem) (fun _ ->
        Ftes_util.Prng.int prng m)
  in
  Design.make problem ~members ~levels ~reexecs ~mapping

let verify_clean ?bus ~slack problem design schedule =
  let report =
    Verify.run ~rules:soundness_rules
      (Subject.of_schedule ~slack ?bus problem design schedule)
  in
  if Report.ok report then true
  else begin
    List.iter
      (fun d -> Printf.eprintf "  %s: %s\n" d.Diagnostic.rule d.Diagnostic.detail)
      (Report.errors report);
    false
  end

let prop_scheduler_output_verifies =
  QCheck.Test.make ~count:60
    ~name:"verifier passes every scheduler output (all slack policies)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let problem = Helpers.synthetic_problem ~seed:(seed / 7) ~n:10 () in
      let design = random_design problem seed in
      List.for_all
        (fun slack ->
          let s = Scheduler.schedule ~slack problem design in
          verify_clean ~slack problem design s)
        [ Scheduler.Shared; Scheduler.Conservative; Scheduler.Dedicated ])

let prop_scheduler_output_verifies_tdma =
  QCheck.Test.make ~count:40
    ~name:"verifier passes scheduler output under a TDMA bus"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let problem = Helpers.synthetic_problem ~seed:(seed / 7) ~n:10 () in
      let design = random_design problem seed in
      let bus = Bus.Tdma { slot_ms = 2.0 } in
      let s = Scheduler.schedule ~bus problem design in
      verify_clean ~bus ~slack:Scheduler.Shared problem design s)

let test_per_process_policy_verifies () =
  let problem, design, _ = base () in
  let budgets = [| 1; 0; 2; 1 |] in
  let slack = Scheduler.Per_process budgets in
  let s = Scheduler.schedule ~slack problem design in
  Alcotest.(check bool) "per-process schedule verifies" true
    (verify_clean ~slack problem design s)

let test_checkpointed_policy_verifies () =
  let problem, design, _ = base () in
  let slack =
    Scheduler.Checkpointed { kappa = [| 2; 1; 3; 2 |]; save_ms = 1.0 }
  in
  let s = Scheduler.schedule ~slack problem design in
  Alcotest.(check bool) "checkpointed schedule verifies" true
    (verify_clean ~slack problem design s)

(* --- mutation tests: each corruption trips the matching rule id --- *)

let with_entry schedule i f =
  let entries = Array.copy schedule.Schedule.entries in
  entries.(i) <- f entries.(i);
  { schedule with Schedule.entries }

(* Each mutation returns the corrupted (design, schedule) pair.  fig4a
   maps P1, P2 on slot 0 and P3, P4 on slot 1 with two bus messages
   (P1->P3 and P2->P4). *)
let mutations :
    (string * string
    * (Problem.t -> Design.t -> Schedule.t -> Design.t * Schedule.t))
    list =
  [ ( "shrunken execution",
      "sched/wcet",
      fun _ design schedule ->
        ( design,
          with_entry schedule 0 (fun e ->
              let mid = e.Schedule.start +. ((e.Schedule.finish -. e.Schedule.start) /. 2.0) in
              { e with Schedule.finish = mid; commit = mid }) ) );
    ( "dropped bus message",
      "sched/precedence",
      fun _ design schedule ->
        (design, { schedule with Schedule.messages = List.tl schedule.Schedule.messages }) );
    ( "perturbed start time",
      "sched/node-overlap",
      fun _ design schedule ->
        (* Pull P2's start back onto P1's execution window, keeping its
           duration. *)
        let p1 = schedule.Schedule.entries.(0) in
        ( design,
          with_entry schedule 1 (fun e ->
              let d = e.Schedule.finish -. e.Schedule.start in
              { e with
                Schedule.start = p1.Schedule.start;
                finish = p1.Schedule.start +. d;
                commit = p1.Schedule.start +. d }) ) );
    ( "overlapping bus messages",
      "sched/bus-overlap",
      fun _ design schedule ->
        match schedule.Schedule.messages with
        | first :: second :: rest ->
            let moved =
              { second with
                Schedule.bus_start = first.Schedule.bus_start;
                bus_finish =
                  first.Schedule.bus_start
                  +. (second.Schedule.bus_finish -. second.Schedule.bus_start) }
            in
            (design, { schedule with Schedule.messages = first :: moved :: rest })
        | _ -> Alcotest.fail "fig4a should have two bus messages" );
    ( "corrupted node worst end",
      "sched/slack",
      fun _ design schedule ->
        let node_worst = Array.copy schedule.Schedule.node_worst in
        node_worst.(0) <- node_worst.(0) +. 7.0;
        (design, { schedule with Schedule.node_worst }) );
    ( "corrupted schedule length",
      "sched/length",
      fun _ design schedule ->
        (design, { schedule with Schedule.length = schedule.Schedule.length -. 1.0 }) );
    ( "deadline overrun",
      "sched/deadline",
      fun problem design schedule ->
        let deadline =
          problem.Problem.app.Ftes_model.Application.deadline_ms
        in
        (design, { schedule with Schedule.length = deadline +. 50.0 }) );
    ( "swapped mapping slots",
      "sched/entries",
      fun _ design schedule ->
        let mapping = Array.copy design.Design.mapping in
        let tmp = mapping.(0) in
        mapping.(0) <- mapping.(2);
        mapping.(2) <- tmp;
        (Design.with_mapping design mapping, schedule) );
    ( "mapping out of range",
      "design/mapping",
      fun _ design schedule ->
        let mapping = Array.copy design.Design.mapping in
        mapping.(1) <- Design.n_members design + 3;
        (Design.with_mapping design mapping, schedule) );
    ( "hardening level out of range",
      "design/hardening",
      fun _ design schedule ->
        let levels = Array.copy design.Design.levels in
        levels.(0) <- 0;
        (Design.with_levels design levels, schedule) );
    ( "duplicate architecture member",
      "design/members",
      fun _ design schedule ->
        let members = Array.copy design.Design.members in
        members.(1) <- members.(0);
        ({ design with Design.members }, schedule) ) ]

let test_mutation (name, rule_id, mutate) () =
  let problem, design, schedule = base () in
  let design, schedule = mutate problem design schedule in
  let report = Verify.certify problem design schedule in
  Alcotest.(check bool) (name ^ " is caught") false (Report.ok report);
  if not (List.mem rule_id (Report.fired_rules report)) then
    Alcotest.failf "%s: expected %s to fire, got [%s]" name rule_id
      (String.concat "; " (Report.fired_rules report))

let test_mutation_diversity () =
  (* The acceptance bar of the issue: corrupted inputs demonstrate at
     least 8 distinct rule ids. *)
  let ids = List.sort_uniq compare (List.map (fun (_, id, _) -> id) mutations) in
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct rule ids covered" (List.length ids))
    true
    (List.length ids >= 8)

let test_clean_base_verifies () =
  let problem, design, schedule = base () in
  let report = Verify.certify problem design schedule in
  Alcotest.(check bool) "uncorrupted fig4a certifies" true (Report.ok report)

(* --- sfp/cache mutations: a corrupted memoized SFP table must trip
   the cache-consistency rule, while faithful tables (and sub-tolerance
   noise) must not. *)

module Sfp = Ftes_sfp.Sfp

let certify_tables tables =
  let problem, design, schedule = base () in
  Verify.certify ~sfp_tables:tables problem design schedule

let base_tables () =
  let problem, design, _ = base () in
  Sfp.analyses_for problem design

(* node_analysis is immutable from outside the Sfp module; rebuild a
   perturbed table by re-analysing a perturbed probability vector or by
   patching the exposed record fields. *)
let sfp_cache_mutations : (string * (Sfp.node_analysis array -> Sfp.node_analysis array)) list =
  [ ( "perturbed process failure probability",
      fun tables ->
        let t = Array.copy tables in
        let probs = Array.copy t.(0).Sfp.probs in
        probs.(0) <- probs.(0) +. 1e-6;
        t.(0) <- { t.(0) with Sfp.probs };
        t );
    ( "perturbed Pr(0)",
      fun tables ->
        let t = Array.copy tables in
        t.(0) <- { t.(0) with Sfp.pr0 = t.(0).Sfp.pr0 -. 1e-6 };
        t );
    ( "perturbed fault-count coefficient",
      fun tables ->
        let t = Array.copy tables in
        let homogeneous = Array.copy t.(1).Sfp.homogeneous in
        homogeneous.(1) <- homogeneous.(1) *. (1.0 +. 1e-3);
        t.(1) <- { t.(1) with Sfp.homogeneous };
        t );
    ( "missing member table",
      fun tables -> Array.sub tables 0 (Array.length tables - 1) ) ]

let test_sfp_cache_mutation (name, mutate) () =
  let report = certify_tables (mutate (base_tables ())) in
  Alcotest.(check bool) (name ^ " is caught") false (Report.ok report);
  if not (List.mem "sfp/cache" (Report.fired_rules report)) then
    Alcotest.failf "%s: expected sfp/cache to fire, got [%s]" name
      (String.concat "; " (Report.fired_rules report))

let test_sfp_cache_clean_tables_pass () =
  let report = certify_tables (base_tables ()) in
  Alcotest.(check bool) "faithful tables certify" true (Report.ok report)

let test_sfp_cache_subgrain_noise_passes () =
  (* A perturbation below the probability tolerance (1e-16 << 1e-15,
     both far below the 1e-11 rounding grain) is indistinguishable from
     rounding and must not fire. *)
  let tables = base_tables () in
  let t = Array.copy tables in
  t.(0) <- { t.(0) with Sfp.pr0 = t.(0).Sfp.pr0 -. 1e-16 };
  let report = certify_tables t in
  Alcotest.(check bool) "sub-tolerance noise certifies" true (Report.ok report)

let test_sfp_cache_rule_skipped_without_tables () =
  let problem, design, schedule = base () in
  let report = Verify.certify problem design schedule in
  Alcotest.(check bool) "sfp/cache not run without tables" false
    (List.mem "sfp/cache" (Report.fired_rules report))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ftes_verify"
    [ ( "registry",
        [ Alcotest.test_case "ids unique" `Quick test_registry_ids_unique;
          Alcotest.test_case "size" `Quick test_registry_size;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "skips without design" `Quick
            test_skip_without_design ] );
      ( "reporters",
        [ Alcotest.test_case "text" `Quick test_text_report;
          Alcotest.test_case "json round-trip" `Quick test_json_report_roundtrip;
          Alcotest.test_case "json carries diagnostics" `Quick
            test_json_reports_diagnostics ] );
      ( "certification",
        [ Alcotest.test_case "exec optimize attaches a report" `Quick
            test_exec_optimize_certificate ] );
      ( "acceptance",
        [ Alcotest.test_case "clean base" `Quick test_clean_base_verifies;
          Alcotest.test_case "per-process policy" `Quick
            test_per_process_policy_verifies;
          Alcotest.test_case "checkpointed policy" `Quick
            test_checkpointed_policy_verifies;
          q prop_scheduler_output_verifies;
          q prop_scheduler_output_verifies_tdma ] );
      ( "mutations",
        Alcotest.test_case "rule id diversity" `Quick test_mutation_diversity
        :: List.map
             (fun ((name, _, _) as m) ->
               Alcotest.test_case name `Quick (test_mutation m))
             mutations );
      ( "sfp-cache mutations",
        Alcotest.test_case "clean tables pass" `Quick
          test_sfp_cache_clean_tables_pass
        :: Alcotest.test_case "sub-tolerance noise passes" `Quick
             test_sfp_cache_subgrain_noise_passes
        :: Alcotest.test_case "rule skipped without tables" `Quick
             test_sfp_cache_rule_skipped_without_tables
        :: List.map
             (fun ((name, _) as m) ->
               Alcotest.test_case name `Quick (test_sfp_cache_mutation m))
             sfp_cache_mutations ) ]
