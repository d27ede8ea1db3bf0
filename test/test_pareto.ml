(* Pareto archive (PR 5): dominance laws, archive invariants, parallel
   merge determinism, the run_frontier anytime-optimality anchor, the
   exchange formats and the verifier's pareto/* rule family.

   The frontier of the cruise-control OPT walk is additionally pinned
   as a golden CSV under [golden/]; to regenerate after an intentional
   change of the explored frontier:

     FTES_REGEN_GOLDEN=$PWD/test/golden dune exec test/test_pareto.exe *)

module Archive = Ftes_pareto.Archive
module Objective = Ftes_pareto.Objective
module Frontier_io = Ftes_pareto.Frontier_io
module Config = Ftes_core.Config
module Design_strategy = Ftes_core.Design_strategy
module Redundancy_opt = Ftes_core.Redundancy_opt
module Design = Ftes_model.Design
module Problem = Ftes_model.Problem
module Application = Ftes_model.Application
module Scheduler = Ftes_sched.Scheduler
module Bus = Ftes_sched.Bus
module Sfp = Ftes_sfp.Sfp
module Pool = Ftes_par.Pool
module Verify = Ftes_verify.Verify
module Report = Ftes_verify.Report
module Subject = Ftes_verify.Subject
module Rule = Ftes_verify.Rule
module Pareto_rules = Ftes_verify.Pareto_rules
module Csv = Ftes_util.Csv
module Json = Ftes_util.Json
module Tolerance = Ftes_util.Tolerance

(* --- shared fixtures --- *)

let cc = lazy (Ftes_cc.Cruise_control.problem ())

let cc_frontier =
  lazy (Design_strategy.run_frontier ~config:Config.default (Lazy.force cc))

(* A design to hang synthetic points on; the archive never inspects
   it beyond the canonical tie-break. *)
let stub_design =
  lazy
    (Helpers.design_on_all_nodes ~levels:1 ~k:0
       (Helpers.synthetic_problem ()))

let point ?(cost = 0.0) ?(slack = 0.0) ?(margin = 0.0) () =
  { Archive.design = Lazy.force stub_design; cost; slack; margin }

(* --- golden frontier CSV --- *)

let golden_name = "frontier_cc.csv"

let () =
  match Sys.getenv_opt "FTES_REGEN_GOLDEN" with
  | Some dir ->
      let path = Filename.concat dir golden_name in
      Csv.write_file path
        (Frontier_io.to_csv (Lazy.force cc_frontier).Design_strategy.archive);
      Printf.printf "regenerated %s\n%!" path;
      exit 0
  | None -> ()

let golden_path name =
  let local = Filename.concat "golden" name in
  if Sys.file_exists local then local
  else Filename.concat (Filename.concat "test" "golden") name

(* The frontier is a pure function of the deterministic walk, and the
   CSV prints round-trippable decimals, so the comparison is exact. *)
let test_golden_frontier () =
  let golden = Csv.read_file (golden_path golden_name) in
  let fresh =
    Frontier_io.to_csv (Lazy.force cc_frontier).Design_strategy.archive
  in
  Alcotest.(check (list (list string))) "cc frontier CSV" golden fresh

(* --- dominance laws (qcheck) --- *)

let vector_gen =
  QCheck.Gen.(
    2 -- 3 >>= fun dim ->
    array_repeat dim (float_of_int <$> -3 -- 3))

let vector_triple =
  QCheck.make
    ~print:(fun (a, b, c) ->
      let p v =
        "[" ^ String.concat ";" (Array.to_list (Array.map string_of_float v))
        ^ "]"
      in
      p a ^ " " ^ p b ^ " " ^ p c)
    QCheck.Gen.(
      vector_gen >>= fun a ->
      map (fun (b, c) -> (a, b, c))
        (pair (array_repeat (Array.length a) (float_of_int <$> -3 -- 3))
           (array_repeat (Array.length a) (float_of_int <$> -3 -- 3))))

let prop_dominance_strict_partial_order =
  QCheck.Test.make ~count:500
    ~name:"dominance is a strict partial order (2-D and 3-D)" vector_triple
    (fun (a, b, c) ->
      let dom = Archive.dominates in
      (not (dom a a))
      && ((not (dom a b)) || not (dom b a))
      && ((not (dom a b && dom b c)) || dom a c))

(* --- archive invariants (qcheck) --- *)

let spec_gen =
  QCheck.Gen.(
    oneofl
      [ Archive.default_spec;
        Archive.spec ~eps:0.5 ();
        Archive.spec ~objectives:[ Objective.Cost; Objective.Slack ] ();
        Archive.spec ~objectives:[ Objective.Cost; Objective.Margin ]
          ~eps:1.0 () ])

let points_gen =
  QCheck.Gen.(
    list_size (1 -- 40)
      (map
         (fun (c, (s, m)) ->
           point ~cost:(float_of_int c) ~slack:(float_of_int s)
             ~margin:(float_of_int m) ())
         (pair (0 -- 6) (pair (0 -- 6) (0 -- 6)))))

let archive_input =
  QCheck.make
    ~print:(fun (spec, pts) ->
      Printf.sprintf "{%s eps %g} %s"
        (Objective.names spec.Archive.objectives)
        spec.Archive.eps
        (String.concat " "
           (List.map
              (fun (p : Archive.point) ->
                Printf.sprintf "(%g,%g,%g)" p.Archive.cost p.Archive.slack
                  p.Archive.margin)
              pts)))
    QCheck.Gen.(pair spec_gen points_gen)

let prop_points_never_dominated =
  QCheck.Test.make ~count:300
    ~name:"insertion never stores a dominated point" archive_input
    (fun (spec, pts) ->
      let archive = Archive.of_points ~spec pts in
      let vs =
        Array.of_list
          (List.map (Archive.vector spec) (Archive.points archive))
      in
      Array.for_all
        (fun a -> Array.for_all (fun b -> not (Archive.dominates a b)) vs)
        vs)

let prop_min_cost_retained =
  QCheck.Test.make ~count:300
    ~name:"grid coarsening never loses the cheapest point when cost is an \
           objective"
    archive_input
    (fun (spec, pts) ->
      QCheck.assume (List.mem Objective.Cost spec.Archive.objectives);
      let archive = Archive.of_points ~spec pts in
      let true_min =
        List.fold_left
          (fun acc (p : Archive.point) -> Float.min acc p.Archive.cost)
          infinity pts
      in
      match Archive.min_cost_point archive with
      | Some p -> p.Archive.cost = true_min
      | None -> pts = [])

let prop_insertion_order_independent =
  QCheck.Test.make ~count:300
    ~name:"archive is a pure function of the inserted set"
    (QCheck.pair archive_input QCheck.(int_bound 1_000_000))
    (fun ((spec, pts), seed) ->
      let shuffled =
        let state = Random.State.make [| seed |] in
        let tagged =
          List.map (fun p -> (Random.State.bits state, p)) pts
        in
        List.map snd (List.sort compare tagged)
      in
      Archive.equal (Archive.of_points ~spec pts)
        (Archive.of_points ~spec shuffled))

let prop_merge_equals_sequential =
  QCheck.Test.make ~count:200
    ~name:"parallel chunked merge = sequential insertion" archive_input
    (fun (spec, pts) ->
      let chunks =
        (* split into 4 round-robin chunks, preserving per-chunk order *)
        let buckets = Array.make 4 [] in
        List.iteri
          (fun i p -> buckets.(i mod 4) <- p :: buckets.(i mod 4))
          pts;
        Array.to_list (Array.map List.rev buckets)
      in
      let pool = Pool.create ~domains:3 () in
      let merged =
        Pool.map ~pool (Archive.of_points ~spec) chunks
        |> List.fold_left Archive.merge (Archive.create ~spec ())
      in
      Archive.equal merged (Archive.of_points ~spec pts))

let prop_points_roundtrip =
  QCheck.Test.make ~count:300
    ~name:"re-inserting points reproduces an equal archive" archive_input
    (fun (spec, pts) ->
      let archive = Archive.of_points ~spec pts in
      Archive.equal archive
        (Archive.of_points ~spec (Archive.points archive)))

(* --- ε-grid capping --- *)

let test_eps_grid_cap () =
  (* 100 costs in [0, 10) on a 1-D cost grid of eps 1: box 0 dominates
     every other box, so exactly one representative survives — and the
     separately tracked best point is still the exact minimum. *)
  let spec = Archive.spec ~objectives:[ Objective.Cost ] ~eps:1.0 () in
  let archive = Archive.create ~spec () in
  for i = 99 downto 0 do
    Archive.insert archive (point ~cost:(0.1 *. float_of_int i) ())
  done;
  Alcotest.(check int) "one box" 1 (Archive.size archive);
  (match Archive.min_cost_point archive with
  | Some p -> Alcotest.(check (float 0.0)) "exact min" 0.0 p.Archive.cost
  | None -> Alcotest.fail "archive empty");
  (* Two objectives, eps 1: only the minimal boxes survive.  Along the
     trade-off diagonal slack = cost the boxes are an anti-chain (7
     survivors); every point strictly below the diagonal is dominated
     by the diagonal point at its slack. *)
  let spec =
    Archive.spec ~objectives:[ Objective.Cost; Objective.Slack ] ~eps:1.0 ()
  in
  let archive = Archive.create ~spec () in
  for c = 0 to 6 do
    for s = 0 to c do
      Archive.insert archive
        (point ~cost:(float_of_int c) ~slack:(float_of_int s) ())
    done
  done;
  Alcotest.(check int) "diagonal anti-chain" 7 (Archive.size archive)

let test_stats () =
  let archive = Archive.create () in
  Archive.insert archive (point ~cost:2.0 ());
  Archive.insert archive (point ~cost:3.0 ());
  (* dominated *)
  Archive.insert archive (point ~cost:1.0 ());
  (* evicts cost 2 *)
  let stats = Archive.stats archive in
  Alcotest.(check int) "boxes" 1 stats.Archive.boxes;
  Alcotest.(check int) "inserted" 2 stats.Archive.inserted;
  Alcotest.(check int) "dominated" 1 stats.Archive.dominated;
  Alcotest.(check int) "evicted" 1 stats.Archive.evicted

(* --- hypervolume, hand-checked --- *)

let test_hypervolume () =
  (* 2-D: min-oriented vectors (1,3) and (2,1) against corner (4,4)
     dominate 3*1 + 2*3 - 2*1 = 7 (staircase union).  Slack is
     maximized, so slack -3 maps to +3 in min space. *)
  let spec =
    Archive.spec ~objectives:[ Objective.Cost; Objective.Slack ] ()
  in
  let archive =
    Archive.of_points ~spec
      [ point ~cost:1.0 ~slack:(-3.0) (); point ~cost:2.0 ~slack:(-1.0) () ]
  in
  let reference =
    { Archive.ref_cost = 4.0; ref_slack = -4.0; ref_margin = 0.0 }
  in
  Alcotest.(check (float 1e-12))
    "2-D staircase" 7.0
    (Archive.hypervolume archive ~reference);
  (* 3-D: a single point one unit inside the corner dominates a unit
     cube. *)
  let archive =
    Archive.of_points [ point ~cost:1.0 ~slack:(-1.0) ~margin:(-1.0) () ]
  in
  let reference =
    { Archive.ref_cost = 2.0; ref_slack = -2.0; ref_margin = -2.0 }
  in
  Alcotest.(check (float 1e-12))
    "3-D unit cube" 1.0
    (Archive.hypervolume archive ~reference);
  (* Points outside the corner contribute nothing. *)
  let archive = Archive.of_points [ point ~cost:5.0 ~slack:1.0 () ] in
  let reference =
    { Archive.ref_cost = 4.0; ref_slack = 0.0; ref_margin = 0.0 }
  in
  Alcotest.(check (float 0.0))
    "outside the corner" 0.0
    (Archive.hypervolume archive ~reference)

(* --- objective parsing --- *)

let test_parse_objectives () =
  (match Objective.parse_list "cost, slack ,margin" with
  | Ok l ->
      Alcotest.(check string) "all three" "cost,slack,margin"
        (Objective.names l)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  let rejects name input =
    match Objective.parse_list input with
    | Ok _ -> Alcotest.failf "%s: %S accepted" name input
    | Error _ -> ()
  in
  rejects "empty" "";
  rejects "unknown" "cost,latency";
  rejects "duplicate" "cost,cost"

(* --- run_frontier: anytime-optimality anchor --- *)

let check_anchor name problem =
  let config = Config.default in
  let opt = Design_strategy.run ~config problem in
  let frontier = Design_strategy.run_frontier ~config problem in
  match (opt, frontier.Design_strategy.best) with
  | None, None ->
      Alcotest.(check int)
        (name ^ ": empty archive when infeasible")
        0
        (Archive.size frontier.Design_strategy.archive)
  | Some o, Some b ->
      let fp (s : Design_strategy.solution) =
        let d = s.Design_strategy.result.Redundancy_opt.design in
        ( s.Design_strategy.result.Redundancy_opt.cost,
          d.Design.members, d.Design.levels, d.Design.reexecs,
          d.Design.mapping )
      in
      Alcotest.(check bool) (name ^ ": best = run, bit for bit") true
        (fp o = fp b);
      (match Archive.min_cost_point frontier.Design_strategy.archive with
      | Some p ->
          let opt_cost, _, _, _, _ = fp o in
          Alcotest.(check bool)
            (name ^ ": archive min cost = OPT cost")
            true
            (p.Archive.cost = opt_cost)
      | None -> Alcotest.fail (name ^ ": archive empty with a solution"))
  | Some _, None | None, Some _ ->
      Alcotest.fail (name ^ ": run and run_frontier disagree on feasibility")

let test_anchor_cc () = check_anchor "cc" (Lazy.force cc)

let test_anchor_synthetic () =
  List.iter
    (fun seed ->
      check_anchor
        (Printf.sprintf "synthetic seed %d" seed)
        (Helpers.synthetic_problem ~seed ~n:8 ()))
    [ 7; 21; 99 ]

(* --- Redundancy_opt result: slack and margin fields --- *)

let test_result_slack_margin () =
  let problem = Lazy.force cc in
  match Design_strategy.run ~config:Config.default problem with
  | None -> Alcotest.fail "cc has no OPT solution"
  | Some s ->
      let r = s.Design_strategy.result in
      Alcotest.(check (float 0.0))
        "slack = deadline - schedule_length"
        (problem.Problem.app.Application.deadline_ms
        -. r.Redundancy_opt.schedule_length)
        r.Redundancy_opt.slack;
      (* The solution's verdict is computed at [Sfp.analysis_kmax],
         the recorded margin at the search kmax; formula (4)'s directed
         rounding may differ by a grain. *)
      let expected =
        Sfp.log10_margin problem.Problem.app
          ~per_iteration_failure:
            s.Design_strategy.verdict.Sfp.per_iteration_failure
      in
      Alcotest.(check bool) "margin matches the verdict" true
        (Tolerance.approx ~eps:1e-6 expected r.Redundancy_opt.margin);
      Alcotest.(check bool) "feasible solution has margin >= 0" true
        (r.Redundancy_opt.margin >= 0.0)

(* --- exchange formats --- *)

let cc_archive () = (Lazy.force cc_frontier).Design_strategy.archive

let test_csv_roundtrip () =
  let archive = cc_archive () in
  match
    Frontier_io.of_csv ~problem:(Lazy.force cc) (Frontier_io.to_csv archive)
  with
  | Ok back ->
      Alcotest.(check bool) "CSV round-trip" true (Archive.equal archive back)
  | Error e -> Alcotest.failf "of_csv: %s" e

let test_json_roundtrip () =
  let archive = cc_archive () in
  let reference =
    { Archive.ref_cost = 81.0; ref_slack = 0.0; ref_margin = 0.0 }
  in
  match
    Frontier_io.of_string ~problem:(Lazy.force cc)
      (Frontier_io.to_string ~reference archive)
  with
  | Ok back ->
      Alcotest.(check bool) "JSON round-trip" true
        (Archive.equal archive back)
  | Error e -> Alcotest.failf "of_string: %s" e

let test_json_versions () =
  let archive = cc_archive () in
  let fields =
    match Frontier_io.to_json archive with
    | Json.Object fields -> fields
    | _ -> Alcotest.fail "to_json is not an object"
  in
  (* Versionless documents read as the deprecated v0, with a warning. *)
  let warnings = ref [] in
  (match
     Frontier_io.of_json
       ~on_warning:(fun w -> warnings := w :: !warnings)
       ~problem:(Lazy.force cc)
       (Json.Object (List.remove_assoc "schema_version" fields))
   with
  | Ok back ->
      Alcotest.(check bool) "v0 content" true (Archive.equal archive back)
  | Error e -> Alcotest.failf "v0 read failed: %s" e);
  Alcotest.(check int) "v0 warns once" 1 (List.length !warnings);
  (* Unknown versions are rejected outright. *)
  match
    Frontier_io.of_json ~problem:(Lazy.force cc)
      (Json.Object
         (("schema_version", Json.Number 99.0)
         :: List.remove_assoc "schema_version" fields))
  with
  | Ok _ -> Alcotest.fail "schema_version 99 accepted"
  | Error e -> Helpers.check_contains "unknown version" e "99"

(* --- verifier: pareto/* rules --- *)

let cc_subject archive ~opt_cost =
  Subject.with_archive ?opt_cost
    { (Subject.of_problem (Lazy.force cc)) with
      Subject.slack = Config.default.Config.slack;
      bus = Config.default.Config.bus }
    archive

let rule id = List.find (fun r -> r.Rule.id = id) Pareto_rules.all

let test_rules_pass_on_clean_archive () =
  let frontier = Lazy.force cc_frontier in
  let opt_cost =
    Option.map
      (fun (s : Design_strategy.solution) ->
        s.Design_strategy.result.Redundancy_opt.cost)
      frontier.Design_strategy.best
  in
  let report =
    Verify.run ~rules:Pareto_rules.all
      (cc_subject frontier.Design_strategy.archive ~opt_cost)
  in
  if not (Report.ok report) then
    Alcotest.failf "clean archive rejected:\n%s" (Report.to_text report)

(* Rules requiring an archive are skipped, not run, on plain subjects —
   the profile/lint paths stay at their 20-rule certificate. *)
let test_rules_skip_without_archive () =
  let report =
    Verify.run ~rules:Pareto_rules.all
      (Subject.of_problem (Lazy.force cc))
  in
  Alcotest.(check bool) "no archive: report ok" true (Report.ok report);
  Helpers.check_contains "all four skipped" (Report.to_text report) "0 rules run"

(* Mutation tests: corrupt one aspect of a genuine frontier and check
   the matching rule catches exactly that corruption. *)

let test_mutation_objectives () =
  let pts = Archive.points (cc_archive ()) in
  let corrupted =
    match pts with
    | p :: rest -> { p with Archive.cost = p.Archive.cost +. 5.0 } :: rest
    | [] -> Alcotest.fail "empty cc frontier"
  in
  let report =
    Verify.run
      ~rules:[ rule "pareto/objectives" ]
      (cc_subject (Archive.unsafe_of_points corrupted) ~opt_cost:None)
  in
  Alcotest.(check bool) "corrupted cost caught" false (Report.ok report);
  Helpers.check_contains "names the rule" (Report.to_text report)
    "pareto/objectives"

let test_mutation_non_dominated () =
  let pts = Archive.points (cc_archive ()) in
  let corrupted =
    match pts with
    | p :: _ -> { p with Archive.slack = p.Archive.slack -. 1.0 } :: pts
    | [] -> Alcotest.fail "empty cc frontier"
  in
  let report =
    Verify.run
      ~rules:[ rule "pareto/non-dominated" ]
      (cc_subject (Archive.unsafe_of_points corrupted) ~opt_cost:None)
  in
  Alcotest.(check bool) "dominated point caught" false (Report.ok report);
  Helpers.check_contains "names the rule" (Report.to_text report)
    "pareto/non-dominated"

let test_mutation_min_cost () =
  let frontier = Lazy.force cc_frontier in
  let opt_cost =
    match frontier.Design_strategy.best with
    | Some s -> Some (s.Design_strategy.result.Redundancy_opt.cost -. 1.0)
    | None -> Alcotest.fail "cc has no OPT solution"
  in
  let report =
    Verify.run
      ~rules:[ rule "pareto/min-cost" ]
      (cc_subject frontier.Design_strategy.archive ~opt_cost)
  in
  Alcotest.(check bool) "wrong anchor caught" false (Report.ok report);
  Helpers.check_contains "names the rule" (Report.to_text report)
    "pareto/min-cost"

let test_mutation_infeasible () =
  (* An honest point (recorded objectives match re-derivation) whose
     design carries no fault tolerance at all: it cannot meet ρ, so
     only pareto/feasible complains. *)
  let problem = Lazy.force cc in
  let frontier_pts = Archive.points (cc_archive ()) in
  let feasible =
    match frontier_pts with p :: _ -> p | [] -> Alcotest.fail "empty"
  in
  let bare =
    let d = feasible.Archive.design in
    Design.make problem ~members:d.Design.members
      ~levels:(Array.map (fun _ -> 1) d.Design.levels)
      ~reexecs:(Array.map (fun _ -> 0) d.Design.reexecs)
      ~mapping:d.Design.mapping
  in
  let verdict = Sfp.evaluate problem bare in
  Alcotest.(check bool) "bare design misses the goal" false
    verdict.Sfp.meets_goal;
  let p =
    { Archive.design = bare;
      cost = Design.cost problem bare;
      slack =
        problem.Problem.app.Application.deadline_ms
        -. Scheduler.schedule_length problem bare;
      margin =
        Sfp.log10_margin problem.Problem.app
          ~per_iteration_failure:verdict.Sfp.per_iteration_failure }
  in
  let report =
    Verify.run
      ~rules:[ rule "pareto/feasible" ]
      (cc_subject (Archive.unsafe_of_points [ p ]) ~opt_cost:None)
  in
  Alcotest.(check bool) "infeasible point caught" false (Report.ok report);
  Helpers.check_contains "names the rule" (Report.to_text report)
    "pareto/feasible"

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "pareto"
    [ ("dominance", [ q prop_dominance_strict_partial_order ]);
      ("archive",
       [ q prop_points_never_dominated;
         q prop_min_cost_retained;
         q prop_insertion_order_independent;
         q prop_merge_equals_sequential;
         q prop_points_roundtrip;
         Alcotest.test_case "eps grid cap" `Quick test_eps_grid_cap;
         Alcotest.test_case "stats" `Quick test_stats;
         Alcotest.test_case "hypervolume" `Quick test_hypervolume;
         Alcotest.test_case "objective parsing" `Quick test_parse_objectives ]);
      ("frontier",
       [ Alcotest.test_case "anchor: cruise control" `Quick test_anchor_cc;
         Alcotest.test_case "anchor: synthetic seeds" `Slow
           test_anchor_synthetic;
         Alcotest.test_case "result slack and margin" `Quick
           test_result_slack_margin;
         Alcotest.test_case "golden cc frontier" `Quick test_golden_frontier ]);
      ("io",
       [ Alcotest.test_case "CSV round-trip" `Quick test_csv_roundtrip;
         Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
         Alcotest.test_case "schema versions" `Quick test_json_versions ]);
      ("rules",
       [ Alcotest.test_case "clean archive passes" `Quick
           test_rules_pass_on_clean_archive;
         Alcotest.test_case "skipped without an archive" `Quick
           test_rules_skip_without_archive;
         Alcotest.test_case "mutation: corrupted cost" `Quick
           test_mutation_objectives;
         Alcotest.test_case "mutation: dominated point" `Quick
           test_mutation_non_dominated;
         Alcotest.test_case "mutation: wrong OPT anchor" `Quick
           test_mutation_min_cost;
         Alcotest.test_case "mutation: infeasible design" `Quick
           test_mutation_infeasible ]) ]
