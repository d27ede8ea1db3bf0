(* Tests for the experiment harness: cells, suites, figure artifacts and
   ablations (small populations so the whole suite stays fast). *)

module Synthetic = Ftes_exp.Synthetic
module Figures = Ftes_exp.Figures
module Ablations = Ftes_exp.Ablations
module Config = Ftes_core.Config
module Workload = Ftes_gen.Workload

let key policy = { Synthetic.ser = 1e-11; hpd = 0.05; policy }

let problems =
  lazy
    (Synthetic.problems (key Config.Optimize)
       (Workload.paper_suite ~count:6 ~seed:321 ()))

let test_run_cell_shape () =
  let run = Synthetic.run_cell ~problems:(Lazy.force problems) (key Config.Optimize) in
  Alcotest.(check int) "one cost slot per app" 6 (Array.length run.Synthetic.costs);
  Alcotest.(check bool) "elapsed time recorded" true (run.Synthetic.elapsed_s >= 0.0)

let test_acceptance_monotone_in_budget () =
  let run = Synthetic.run_cell ~problems:(Lazy.force problems) (key Config.Optimize) in
  let a15 = Synthetic.acceptance run ~max_cost:15.0 in
  let a20 = Synthetic.acceptance run ~max_cost:20.0 in
  let a25 = Synthetic.acceptance run ~max_cost:25.0 in
  Alcotest.(check bool) "monotone" true (a15 <= a20 && a20 <= a25);
  Alcotest.(check bool) "bounded" true (a15 >= 0.0 && a25 <= 100.0)

let test_acceptance_vs_feasibility () =
  let run = Synthetic.run_cell ~problems:(Lazy.force problems) (key Config.Optimize) in
  Alcotest.(check bool) "acceptance below feasibility" true
    (Synthetic.acceptance run ~max_cost:1e9 <= Synthetic.feasibility run +. 1e-9);
  Alcotest.(check (float 1e-9)) "infinite budget = feasibility"
    (Synthetic.feasibility run)
    (Synthetic.acceptance run ~max_cost:infinity)

let test_opt_at_least_min () =
  let problems = Lazy.force problems in
  let opt = Synthetic.run_cell ~problems (key Config.Optimize) in
  let min_ = Synthetic.run_cell ~problems (key Config.Fixed_min) in
  Alcotest.(check bool) "OPT feasibility >= MIN feasibility" true
    (Synthetic.feasibility opt >= Synthetic.feasibility min_ -. 1e-9)

let test_suite_memoization () =
  let suite = Synthetic.create_suite ~count:4 ~seed:55 () in
  let a = Synthetic.cell suite (key Config.Fixed_min) in
  let b = Synthetic.cell suite (key Config.Fixed_min) in
  Alcotest.(check bool) "same physical run returned" true (a == b)

let test_suite_population () =
  let suite = Synthetic.create_suite ~count:8 ~seed:55 () in
  Alcotest.(check int) "population size" 8
    (List.length (Synthetic.suite_specs suite))

let test_policies_order () =
  Alcotest.(check (list string)) "paper chart order" [ "MAX"; "MIN"; "OPT" ]
    (List.map Config.policy_name Synthetic.policies)

(* --- Figures --- *)

let small_suite = lazy (Synthetic.create_suite ~count:4 ~seed:77 ())

let check_artifact artifact ~xs =
  Alcotest.(check int) "x labels" xs (List.length artifact.Figures.x_labels);
  Alcotest.(check int) "three measured series" 3 (List.length artifact.Figures.ours);
  Alcotest.(check int) "three paper series" 3 (List.length artifact.Figures.paper);
  List.iter
    (fun (_, values) ->
      Alcotest.(check int) "series width" xs (List.length values);
      List.iter
        (fun v ->
          Alcotest.(check bool) "percentage" true (v >= 0.0 && v <= 100.0))
        values)
    artifact.Figures.ours

let test_fig6a_artifact () =
  check_artifact (Figures.fig6a (Lazy.force small_suite)) ~xs:4

let test_fig6b_artifacts () =
  let artifacts = Figures.fig6b (Lazy.force small_suite) in
  Alcotest.(check int) "three ArC rows" 3 (List.length artifacts);
  List.iter (check_artifact ~xs:4) artifacts

let test_fig6c_artifact () =
  check_artifact (Figures.fig6c (Lazy.force small_suite)) ~xs:3

let test_fig6d_artifact () =
  check_artifact (Figures.fig6d (Lazy.force small_suite)) ~xs:3

let test_render_artifact () =
  let s = Figures.render (Figures.fig6a (Lazy.force small_suite)) in
  Helpers.check_contains "render" s "MIN";
  Helpers.check_contains "render" s "OPT";
  Helpers.check_contains "render" s "Fig. 6a";
  Helpers.check_contains "render" s "(paper)"

let test_to_csv () =
  let rows = Figures.to_csv (Figures.fig6a (Lazy.force small_suite)) in
  Alcotest.(check int) "header + 3 measured + 3 paper" 7 (List.length rows);
  List.iter
    (fun row -> Alcotest.(check int) "row width" 6 (List.length row))
    rows

let test_cc_study_rows () =
  let r = Figures.cc_study () in
  Alcotest.(check int) "three strategies" 3 (List.length r.Figures.rows);
  (match r.Figures.opt_saving_vs_max with
  | None -> Alcotest.fail "saving must be available"
  | Some s -> Alcotest.(check bool) "saving in (0.55, 0.75)" true (s > 0.55 && s < 0.75));
  let s = Figures.render_cc r in
  Helpers.check_contains "render" s "66%";
  Helpers.check_contains "render" s "Cruise controller"

(* --- Ablations --- *)

let test_slack_ablation () =
  let rows = Ablations.slack_ablation ~count:4 ~seed:88 () in
  Alcotest.(check int) "three policies" 3 (List.length rows);
  let shared = List.nth rows 0 and dedicated = List.nth rows 2 in
  Alcotest.(check bool) "sharing never hurts feasibility" true
    (shared.Ablations.feasible_pct >= dedicated.Ablations.feasible_pct -. 1e-9);
  Helpers.check_contains "render" (Ablations.render_slack rows) "slack policy"

let test_mapping_ablation () =
  let rows = Ablations.mapping_ablation ~count:4 ~seed:88 () in
  Alcotest.(check int) "two variants" 2 (List.length rows);
  Helpers.check_contains "render" (Ablations.render_mapping rows) "tabu"

let test_bound_ablation () =
  let rows = Ablations.bound_ablation ~count:4 ~seed:88 () in
  Alcotest.(check int) "three technologies" 3 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "bound never needs fewer re-executions" true
        (r.Ablations.mean_extra_k >= -1e9 && r.Ablations.bound_mean_k
         >= r.Ablations.exact_mean_k -. 1e-9))
    rows;
  Helpers.check_contains "render" (Ablations.render_bound rows) "exact"

let test_optimality_gap () =
  let r = Ablations.optimality_gap ~count:4 ~n_processes:6 ~seed:88 () in
  Alcotest.(check int) "instances" 4 r.Ablations.instances;
  Alcotest.(check bool) "gap is non-negative" true (r.Ablations.mean_gap_pct >= -1e-6);
  Alcotest.(check bool) "optimal count bounded" true
    (r.Ablations.heuristic_optimal <= r.Ablations.both_feasible);
  Helpers.check_contains "render" (Ablations.render_gap r) "optimum"

(* The ablation reads both costs from the branch-and-bound certificate;
   its row must equal the one the greedy walk and the independent full
   enumeration give, on the bench's quick parameters (gaps summed in
   the ablation's order, so the mean is bit-equal). *)
let test_optimality_gap_vs_enumeration () =
  let count = 6 and seed = 42 in
  let params =
    { Workload.default_params with Workload.n_library = 2; levels = 3 }
  in
  let config = Config.default in
  let gaps =
    List.filter_map
      (fun index ->
        let spec =
          Workload.generate_spec ~params ~seed ~index ~n_processes:7 ()
        in
        let problem =
          Workload.problem_of_spec ~params
            { Workload.ser = 1e-11; hpd = 0.25 }
            spec
        in
        match
          ( Ftes_core.Design_strategy.run ~config problem,
            Ftes_oracle.Exhaustive.run ~config problem )
        with
        | Some h, Some e ->
            let ch =
              h.Ftes_core.Design_strategy.result.Ftes_core.Redundancy_opt.cost
            in
            let ce = e.Ftes_core.Redundancy_opt.cost in
            Some ((ch -. ce) /. ce)
        | _ -> None)
      (List.init count Fun.id)
  in
  let expected =
    { Ablations.instances = count;
      both_feasible = List.length gaps;
      heuristic_optimal = List.length (List.filter (fun g -> g <= 1e-9) gaps);
      mean_gap_pct = 100.0 *. Ftes_util.Stats.mean (List.rev gaps);
      max_gap_pct = 100.0 *. List.fold_left Float.max 0.0 gaps }
  in
  Alcotest.(check bool) "some instance is feasible" true (gaps <> []);
  Alcotest.(check bool) "same row as the enumeration" true
    (Ablations.optimality_gap ~count ~seed () = expected)

let test_exact_worst_case_rows () =
  let rows = Ablations.exact_worst_case ~count:3 ~n_processes:6 ~seed:88 () in
  List.iter
    (fun r ->
      Alcotest.(check bool) "exact within conservative" true
        (r.Ablations.exact_ms <= r.Ablations.conservative_ms +. 1e-9);
      Alcotest.(check bool) "exact at least the nominal shared" true
        (r.Ablations.exact_ms > 0.0))
    rows;
  Helpers.check_contains "render" (Ablations.render_exact rows) "worst case"

let test_runtime_study () =
  let rows = Ablations.runtime_study ~per_size:1 ~seed:88 () in
  Alcotest.(check (list int)) "sizes" [ 10; 20; 30; 40 ]
    (List.map (fun r -> r.Ablations.n_procs) rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "times non-negative" true
        (r.Ablations.mean_opt_s >= 0.0 && r.Ablations.max_opt_s >= r.Ablations.mean_opt_s -. 1e-9))
    rows;
  Helpers.check_contains "render" (Ablations.render_runtime rows) "Runtime"

let test_policy_comparison () =
  let rows = Ablations.retry_policy_comparison ~count:4 ~seed:88 () in
  Alcotest.(check int) "three policies" 3 (List.length rows);
  (match rows with
  | shared :: others ->
      Alcotest.(check (float 1e-9)) "shared is the reference" 1.0
        shared.Ablations.mean_sl_ratio;
      List.iter
        (fun r ->
          Alcotest.(check bool) "alternatives never shorter" true
            (r.Ablations.mean_sl_ratio >= 1.0 -. 1e-9))
        others
  | [] -> Alcotest.fail "no rows");
  Helpers.check_contains "render" (Ablations.render_policy rows) "policy"

let test_checkpoint_ablation () =
  let rows = Ablations.checkpoint_ablation ~count:4 ~seed:88 () in
  Alcotest.(check int) "three save costs" 3 (List.length rows);
  (match rows with
  | cheap :: _ :: expensive :: _ ->
      Alcotest.(check bool) "cheaper saves reclaim at least as much" true
        (cheap.Ablations.mean_sl_reduction_pct
         >= expensive.Ablations.mean_sl_reduction_pct -. 1e-6);
      List.iter
        (fun r ->
          Alcotest.(check bool) "checkpointing never hurts" true
            (r.Ablations.mean_sl_reduction_pct >= -1e-6))
        rows
  | _ -> Alcotest.fail "row shape");
  Helpers.check_contains "render" (Ablations.render_checkpoint rows) "checkpoint"

let test_optimism_rows () =
  let rows = Ablations.optimism ~count:2 ~trials:2_000 ~boost:1_000.0 ~seed:99 () in
  Alcotest.(check bool) "at least one feasible app" true (List.length rows >= 1);
  List.iter
    (fun r ->
      Alcotest.(check bool) "rates are probabilities" true
        (r.Ablations.predicted >= 0.0 && r.Ablations.predicted <= 1.0
        && r.Ablations.observed >= 0.0 && r.Ablations.observed <= 1.0))
    rows;
  Helpers.check_contains "render" (Ablations.render_optimism rows) "SFP"

let () =
  Alcotest.run "ftes_exp"
    [ ( "synthetic",
        [ Alcotest.test_case "cell shape" `Quick test_run_cell_shape;
          Alcotest.test_case "acceptance monotone" `Quick
            test_acceptance_monotone_in_budget;
          Alcotest.test_case "acceptance vs feasibility" `Quick
            test_acceptance_vs_feasibility;
          Alcotest.test_case "OPT >= MIN" `Quick test_opt_at_least_min;
          Alcotest.test_case "suite memoization" `Quick test_suite_memoization;
          Alcotest.test_case "suite population" `Quick test_suite_population;
          Alcotest.test_case "policy order" `Quick test_policies_order ] );
      ( "figures",
        [ Alcotest.test_case "fig6a" `Quick test_fig6a_artifact;
          Alcotest.test_case "fig6b" `Quick test_fig6b_artifacts;
          Alcotest.test_case "fig6c" `Quick test_fig6c_artifact;
          Alcotest.test_case "fig6d" `Quick test_fig6d_artifact;
          Alcotest.test_case "render" `Quick test_render_artifact;
          Alcotest.test_case "csv" `Quick test_to_csv;
          Alcotest.test_case "cc study" `Slow test_cc_study_rows ] );
      ( "ablations",
        [ Alcotest.test_case "slack" `Slow test_slack_ablation;
          Alcotest.test_case "mapping" `Slow test_mapping_ablation;
          Alcotest.test_case "SFP bound" `Slow test_bound_ablation;
          Alcotest.test_case "optimality gap" `Slow test_optimality_gap;
          Alcotest.test_case "gap = enumeration" `Slow
            test_optimality_gap_vs_enumeration;
          Alcotest.test_case "exact worst case" `Slow test_exact_worst_case_rows;
          Alcotest.test_case "runtime study" `Slow test_runtime_study;
          Alcotest.test_case "retry policy comparison" `Slow test_policy_comparison;
          Alcotest.test_case "checkpoint ablation" `Slow test_checkpoint_ablation;
          Alcotest.test_case "optimism" `Slow test_optimism_rows ] ) ]
