(* Tests for the optimization heuristics of Section 6: ReExecutionOpt,
   RedundancyOpt, the tabu MappingAlgorithm and DesignStrategy. *)

module Config = Ftes_core.Config
module Re_execution_opt = Ftes_core.Re_execution_opt
module Redundancy_opt = Ftes_core.Redundancy_opt
module Mapping_opt = Ftes_core.Mapping_opt
module Design_strategy = Ftes_core.Design_strategy
module Design = Ftes_model.Design
module Problem = Ftes_model.Problem
module Scheduler = Ftes_sched.Scheduler
module Sfp = Ftes_sfp.Sfp

let fig1 = Ftes_cc.Fig_examples.fig1_problem
let fig3 = Ftes_cc.Fig_examples.fig3_problem

(* --- ReExecutionOpt --- *)

let test_reexec_fig4a () =
  let problem = fig1 () in
  let base = Design.with_reexecs (Ftes_cc.Fig_examples.fig4a problem) [| 0; 0 |] in
  match Re_execution_opt.for_mapping problem base with
  | None -> Alcotest.fail "goal should be reachable"
  | Some k -> Alcotest.(check (array int)) "one re-execution per node" [| 1; 1 |] k

let test_reexec_greedy_picks_largest_gain () =
  (* Two nodes; the second is an order of magnitude less reliable, so
     the first re-execution must go there (the paper's guiding
     example). *)
  let graph = Ftes_model.Task_graph.make ~n:2 [] in
  let app =
    Ftes_model.Application.make ~graph ~deadline_ms:1000.0 ~gamma:1e-5
      ~recovery_overhead_ms:1.0 ()
  in
  let node name p =
    Ftes_model.Platform.node_type ~name
      ~versions:
        [| Ftes_model.Platform.hversion ~level:1 ~cost:1.0
             ~wcet_ms:[| 10.0; 10.0 |] ~pfail:[| p; p |] |]
  in
  let problem =
    Problem.make ~app ~library:[| node "A" 1e-6; node "B" 1e-4 |]
  in
  let design =
    Design.make problem ~members:[| 0; 1 |] ~levels:[| 1; 1 |]
      ~reexecs:[| 0; 0 |] ~mapping:[| 0; 1 |]
  in
  match Re_execution_opt.for_mapping problem design with
  | None -> Alcotest.fail "reachable"
  | Some k ->
      Alcotest.(check bool) "unreliable node gets at least as many" true
        (k.(1) >= k.(0));
      Alcotest.(check bool) "some re-execution on B" true (k.(1) >= 1)

let test_reexec_zero_when_reliable () =
  let problem = fig1 () in
  (* Most hardened mono-node (fig4e): goal met with k = 0. *)
  let base = Ftes_cc.Fig_examples.fig4e problem in
  match Re_execution_opt.for_mapping problem base with
  | None -> Alcotest.fail "reachable"
  | Some k -> Alcotest.(check (array int)) "no re-executions needed" [| 0 |] k

let test_reexec_unreachable_with_tiny_kmax () =
  let problem = fig3 () in
  let design =
    Design.make problem ~members:[| 0 |] ~levels:[| 1 |] ~reexecs:[| 0 |]
      ~mapping:[| 0 |]
  in
  (* h=1 needs k=6; capping at 2 must fail. *)
  Alcotest.(check bool) "kmax too small" true
    (Re_execution_opt.for_mapping ~kmax:2 problem design = None)

let test_reexec_optimize_sets_design () =
  let problem = fig1 () in
  let base = Design.with_reexecs (Ftes_cc.Fig_examples.fig4a problem) [| 9; 9 |] in
  match Re_execution_opt.optimize problem base with
  | None -> Alcotest.fail "reachable"
  | Some d ->
      Alcotest.(check (array int)) "recomputed from scratch" [| 1; 1 |]
        d.Design.reexecs;
      Alcotest.(check bool) "meets the goal" true (Sfp.meets_goal problem d)

(* --- RedundancyOpt --- *)

let fresh_cache () = Redundancy_opt.create_cache ()

let test_redundancy_fig3_opt () =
  let problem = fig3 () in
  let design =
    Design.make problem ~members:[| 0 |] ~levels:[| 1 |] ~reexecs:[| 0 |]
      ~mapping:[| 0 |]
  in
  match
    Redundancy_opt.run ~cache:(fresh_cache ()) ~config:Config.default problem
      design
  with
  | None -> Alcotest.fail "fig3 should be solvable"
  | Some r ->
      Alcotest.(check int) "chooses h=2" 2 r.Redundancy_opt.design.Design.levels.(0);
      Alcotest.(check (float 1e-9)) "cost 20" 20.0 r.Redundancy_opt.cost;
      Alcotest.(check (float 1e-9)) "SL 340" 340.0 r.Redundancy_opt.schedule_length

let test_redundancy_fixed_min () =
  let problem = fig3 () in
  let design =
    Design.make problem ~members:[| 0 |] ~levels:[| 1 |] ~reexecs:[| 0 |]
      ~mapping:[| 0 |]
  in
  (* At minimum hardening the single process needs k=6 -> SL 680 > 360. *)
  Alcotest.(check bool) "MIN infeasible on fig3" true
    (Redundancy_opt.run ~cache:(fresh_cache ()) ~config:Config.min_strategy
       problem design
    = None)

let test_redundancy_fixed_max () =
  let problem = fig3 () in
  let design =
    Design.make problem ~members:[| 0 |] ~levels:[| 1 |] ~reexecs:[| 0 |]
      ~mapping:[| 0 |]
  in
  match
    Redundancy_opt.run ~cache:(fresh_cache ()) ~config:Config.max_strategy
      problem design
  with
  | None -> Alcotest.fail "MAX feasible on fig3"
  | Some r ->
      Alcotest.(check int) "level 3" 3 r.Redundancy_opt.design.Design.levels.(0);
      Alcotest.(check (float 1e-9)) "cost 40" 40.0 r.Redundancy_opt.cost

let test_redundancy_result_is_feasible () =
  let problem = fig1 () in
  let base = Design.with_reexecs (Ftes_cc.Fig_examples.fig4a problem) [| 0; 0 |] in
  match
    Redundancy_opt.run ~cache:(fresh_cache ()) ~config:Config.default problem
      base
  with
  | None -> Alcotest.fail "feasible"
  | Some r ->
      let d = r.Redundancy_opt.design in
      Alcotest.(check bool) "schedulable" true (Scheduler.is_schedulable problem d);
      Alcotest.(check bool) "reliable" true (Sfp.meets_goal problem d);
      Alcotest.(check bool) "cost at most both-h2" true (r.Redundancy_opt.cost <= 72.0)

let test_probe_matches_run () =
  let problem = fig1 () in
  let base = Design.with_reexecs (Ftes_cc.Fig_examples.fig4a problem) [| 0; 0 |] in
  let run =
    Redundancy_opt.run ~cache:(fresh_cache ()) ~config:Config.default problem
      base
  in
  let probe, best_len =
    Redundancy_opt.probe ~cache:(fresh_cache ()) ~config:Config.default
      problem base
  in
  (match (run, probe) with
  | Some a, Some b ->
      Alcotest.(check (float 1e-9)) "same cost" a.Redundancy_opt.cost b.Redundancy_opt.cost
  | None, None -> ()
  | _ -> Alcotest.fail "probe and run disagree on feasibility");
  Alcotest.(check bool) "best-effort length is finite" true (Float.is_finite best_len)

let test_best_effort_length () =
  let problem = fig3 () in
  let design =
    Design.make problem ~members:[| 0 |] ~levels:[| 1 |] ~reexecs:[| 0 |]
      ~mapping:[| 0 |]
  in
  let len =
    Redundancy_opt.best_effort_length ~cache:(fresh_cache ())
      ~config:Config.default problem design
  in
  Alcotest.(check (float 1e-9)) "shortest reachable worst case" 340.0 len;
  let len_min =
    Redundancy_opt.best_effort_length ~cache:(fresh_cache ())
      ~config:Config.min_strategy problem design
  in
  Alcotest.(check (float 1e-9)) "MIN best effort is 680" 680.0 len_min

(* --- MappingAlgorithm --- *)

let test_initial_mapping_total () =
  let problem = Helpers.synthetic_problem ~n:15 () in
  let members = [| 0; 1; 2 |] in
  let mapping = Mapping_opt.initial_mapping problem ~members in
  Alcotest.(check int) "covers all processes" 15 (Array.length mapping);
  Array.iter
    (fun slot -> Alcotest.(check bool) "valid slot" true (slot >= 0 && slot < 3))
    mapping

let test_mapping_single_node () =
  let problem = fig1 () in
  match
    Mapping_opt.run ~cache:(fresh_cache ()) ~config:Config.default
      ~objective:Mapping_opt.Schedule_length
      problem ~members:[| 1 |]
  with
  | None -> Alcotest.fail "mono N2 is feasible (fig4e)"
  | Some r ->
      Alcotest.(check (float 1e-9)) "SL 330 at h3 k0" 330.0
        r.Redundancy_opt.schedule_length

let test_mapping_two_nodes_beats_paper () =
  let problem = fig1 () in
  match
    Mapping_opt.run ~cache:(fresh_cache ()) ~config:Config.default
      ~objective:Mapping_opt.Architecture_cost
      problem ~members:[| 0; 1 |]
  with
  | None -> Alcotest.fail "two-node architecture is feasible (fig4a)"
  | Some r ->
      Alcotest.(check bool) "cost at most the paper's 72" true
        (r.Redundancy_opt.cost <= 72.0 +. 1e-9);
      let d = r.Redundancy_opt.design in
      Alcotest.(check bool) "feasible" true
        (Scheduler.is_schedulable problem d && Sfp.meets_goal problem d)

let test_mapping_respects_initial () =
  let problem = fig1 () in
  let initial = [| 0; 0; 1; 1 |] in
  match
    Mapping_opt.run ~cache:(fresh_cache ())
      ~config:(Config.with_max_iterations 0 Config.default)
      ~objective:Mapping_opt.Schedule_length ~initial problem ~members:[| 0; 1 |]
  with
  | None -> Alcotest.fail "fig4a mapping is feasible"
  | Some r ->
      Alcotest.(check (array int)) "mapping unchanged with zero iterations"
        initial r.Redundancy_opt.design.Design.mapping

let test_tabu_no_worse_than_greedy () =
  let problem = Helpers.synthetic_problem ~seed:77 ~n:16 ~ser:1e-10 () in
  let members = [| 0; 1 |] in
  let run config =
    Mapping_opt.run ~cache:(fresh_cache ()) ~config
      ~objective:Mapping_opt.Schedule_length problem ~members
  in
  let greedy = run (Config.with_max_iterations 0 Config.default) in
  let tabu = run Config.default in
  match (greedy, tabu) with
  | Some g, Some t ->
      Alcotest.(check bool) "tabu SL <= greedy SL" true
        (t.Redundancy_opt.schedule_length
         <= g.Redundancy_opt.schedule_length +. 1e-9)
  | None, Some _ -> () (* tabu rescued an infeasible greedy mapping *)
  | None, None -> () (* instance infeasible for this architecture *)
  | Some _, None -> Alcotest.fail "tabu lost a feasible solution"

(* --- DesignStrategy --- *)

let test_architectures_by_speed () =
  let problem = fig1 () in
  let singles = Design_strategy.architectures_by_speed problem ~n:1 in
  Alcotest.(check int) "two singletons" 2 (List.length singles);
  (* N2 is faster on average (mean WCET 57.5 vs 67.5 at level 1). *)
  Alcotest.(check (array int)) "fastest first" [| 1 |] (List.hd singles);
  let pairs = Design_strategy.architectures_by_speed problem ~n:2 in
  Alcotest.(check int) "one pair" 1 (List.length pairs);
  Alcotest.(check (list (array int))) "out of range" []
    (Design_strategy.architectures_by_speed problem ~n:3)

let test_strategy_fig1 () =
  let problem = fig1 () in
  match Design_strategy.run ~config:Config.default problem with
  | None -> Alcotest.fail "fig1 feasible"
  | Some s ->
      Alcotest.(check bool) "cost at most the paper's 72" true
        (s.Design_strategy.result.Redundancy_opt.cost <= 72.0 +. 1e-9);
      Alcotest.(check bool) "verdict meets goal" true
        s.Design_strategy.verdict.Sfp.meets_goal;
      Alcotest.(check bool) "explored several architectures" true
        (s.Design_strategy.explored >= 1)

let test_strategy_fig3_choice () =
  let problem = fig3 () in
  match Design_strategy.run ~config:Config.default problem with
  | None -> Alcotest.fail "fig3 feasible"
  | Some s ->
      Alcotest.(check (float 1e-9)) "the paper's choice: N1^2 at cost 20" 20.0
        s.Design_strategy.result.Redundancy_opt.cost

let test_strategy_policies_order () =
  (* OPT subsumes both baselines, so its cost is never worse. *)
  let problem = Ftes_cc.Cruise_control.problem () in
  let cost config =
    Design_strategy.run ~config problem
    |> Option.map (fun (s : Design_strategy.solution) ->
           s.Design_strategy.result.Redundancy_opt.cost)
  in
  let opt = cost Config.default and max_ = cost Config.max_strategy in
  match (opt, max_) with
  | Some o, Some m -> Alcotest.(check bool) "OPT <= MAX" true (o <= m +. 1e-9)
  | None, _ -> Alcotest.fail "OPT feasible on the CC"
  | _, None -> Alcotest.fail "MAX feasible on the CC"

let test_accepted () =
  let problem = fig3 () in
  let sol = Design_strategy.run ~config:Config.default problem in
  Alcotest.(check bool) "no bound" true (Design_strategy.accepted sol);
  Alcotest.(check bool) "bound 20 accepts" true
    (Design_strategy.accepted ~max_cost:20.0 sol);
  Alcotest.(check bool) "bound 10 rejects" false
    (Design_strategy.accepted ~max_cost:10.0 sol);
  Alcotest.(check bool) "none rejected" false
    (Design_strategy.accepted ~max_cost:10.0 None)

let test_strategy_solution_consistency () =
  let problem = Helpers.synthetic_problem ~seed:5 ~n:12 () in
  match Design_strategy.run ~config:Config.default problem with
  | None -> () (* tight instances may be infeasible; nothing to check *)
  | Some s ->
      let d = s.Design_strategy.result.Redundancy_opt.design in
      Alcotest.(check bool) "design validates" true (Design.validate problem d = Ok ());
      Alcotest.(check (float 1e-6)) "cost consistent"
        (Design.cost problem d) s.Design_strategy.result.Redundancy_opt.cost;
      Alcotest.(check (float 1e-6)) "schedule length consistent"
        (Ftes_sched.Schedule.length s.Design_strategy.schedule)
        s.Design_strategy.result.Redundancy_opt.schedule_length;
      Alcotest.(check bool) "meets goal" true s.Design_strategy.verdict.Sfp.meets_goal

(* OPT never loses to MIN or MAX on feasibility/cost over a small fixed
   population (its search space is a superset of both baselines'). *)
let test_opt_dominates () =
  List.iter
    (fun seed ->
      let problem = Helpers.synthetic_problem ~seed ~n:10 () in
      let cost config =
        Design_strategy.run ~config problem
        |> Option.map (fun (s : Design_strategy.solution) ->
               s.Design_strategy.result.Redundancy_opt.cost)
      in
      match
        (cost Config.default, cost Config.min_strategy, cost Config.max_strategy)
      with
      | Some o, Some mn, _ when o > mn +. 1e-6 ->
          Alcotest.failf "seed %d: OPT %.1f worse than MIN %.1f" seed o mn
      | Some o, _, Some mx when o > mx +. 1e-6 ->
          Alcotest.failf "seed %d: OPT %.1f worse than MAX %.1f" seed o mx
      | None, Some _, _ | None, _, Some _ ->
          Alcotest.failf "seed %d: OPT infeasible but a baseline succeeded" seed
      | _ -> ())
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

(* --- Per-process retry assignment --- *)

module Retry_opt = Ftes_core.Retry_opt

let test_retry_fig4a () =
  let problem = fig1 () in
  let design = Ftes_cc.Fig_examples.fig4a problem in
  match Retry_opt.for_mapping problem design with
  | None -> Alcotest.fail "goal reachable with per-process retries"
  | Some k ->
      Alcotest.(check int) "budget per process" 4 (Array.length k);
      Alcotest.(check bool) "meets the goal" true
        (Ftes_sfp.Per_process.meets_goal problem design ~k);
      Alcotest.(check bool) "no budget wasted: at most 1 retry each" true
        (Array.for_all (fun b -> b <= 1) k)

let test_retry_schedule_length () =
  let problem = fig1 () in
  let design = Ftes_cc.Fig_examples.fig4a problem in
  match Retry_opt.optimize problem design with
  | None -> Alcotest.fail "reachable"
  | Some (k, sl) ->
      (* Per-process dedicated slack is at least the shared slack of the
         design with the same mapping. *)
      Alcotest.(check bool) "SL grows vs shared" true
        (sl >= Ftes_sched.Scheduler.schedule_length problem design -. 1e-9);
      Alcotest.(check (float 1e-9)) "consistent with the scheduler" sl
        (Retry_opt.schedule_length problem design ~k)

let test_retry_unreachable () =
  let problem = fig3 () in
  let design =
    Ftes_model.Design.make problem ~members:[| 0 |] ~levels:[| 1 |]
      ~reexecs:[| 0 |] ~mapping:[| 0 |]
  in
  (* p = 4e-2 needs 6 retries; a cap of 2 is not enough. *)
  Alcotest.(check bool) "kmax too small" true
    (Retry_opt.for_mapping ~kmax:2 problem design = None);
  match Retry_opt.for_mapping problem design with
  | None -> Alcotest.fail "default kmax suffices"
  | Some k -> Alcotest.(check int) "six retries on the single process" 6 k.(0)

let test_per_process_slack_mode () =
  let problem = fig1 () in
  let design = Ftes_cc.Fig_examples.fig4b problem in
  (* Budgets only on P2 (the largest process on the mono node). *)
  let k = [| 0; 2; 0; 0 |] in
  let sl =
    Ftes_sched.Scheduler.schedule_length
      ~slack:(Ftes_sched.Scheduler.Per_process k) problem design
  in
  (* Nominal 330 + 2 * (90 + 15) = 540 — same as the uniform dedicated
     worst case concentrated on P2. *)
  Alcotest.(check (float 1e-9)) "slack charged on P2 only" 540.0 sl;
  Alcotest.check_raises "budget vector must cover all processes"
    (Invalid_argument "Scheduler.schedule: per-process budget length mismatch")
    (fun () ->
      ignore
        (Ftes_sched.Scheduler.schedule_length
           ~slack:(Ftes_sched.Scheduler.Per_process [| 0 |]) problem design))

(* --- Checkpointing --- *)

module Checkpoint_opt = Ftes_core.Checkpoint_opt

let test_checkpoint_formula () =
  (* t=80, save=4, mu=20, kappa=11, k=6: 80 + 40 + 6*(80/11 + 20). *)
  Alcotest.(check (float 1e-9)) "W(11)"
    (120.0 +. (6.0 *. ((80.0 /. 11.0) +. 20.0)))
    (Checkpoint_opt.lone_worst_case ~t:80.0 ~save:4.0 ~mu:20.0 ~kappa:11 ~k:6);
  Alcotest.(check (float 1e-9)) "kappa=1 is plain re-execution"
    (80.0 +. (6.0 *. 100.0))
    (Checkpoint_opt.lone_worst_case ~t:80.0 ~save:4.0 ~mu:20.0 ~kappa:1 ~k:6);
  Alcotest.check_raises "kappa must be positive"
    (Invalid_argument "Checkpoint_opt: kappa must be >= 1") (fun () ->
      ignore (Checkpoint_opt.lone_worst_case ~t:1.0 ~save:0.1 ~mu:0.1 ~kappa:0 ~k:1))

let test_optimal_checkpoints () =
  Alcotest.(check int) "no faults, no checkpoints" 1
    (Checkpoint_opt.optimal_checkpoints ~t:80.0 ~save:4.0 ~k:0 ());
  Alcotest.(check int) "free saves saturate" 20
    (Checkpoint_opt.optimal_checkpoints ~t:80.0 ~save:0.0 ~k:3 ());
  (* Exact scan agrees with brute force. *)
  List.iter
    (fun (t, save, k) ->
      let brute = ref 1 in
      for kappa = 2 to 20 do
        if
          Checkpoint_opt.lone_worst_case ~t ~save ~mu:0.0 ~kappa ~k
          < Checkpoint_opt.lone_worst_case ~t ~save ~mu:0.0 ~kappa:!brute ~k
        then brute := kappa
      done;
      Alcotest.(check int)
        (Printf.sprintf "t=%g save=%g k=%d" t save k)
        !brute
        (Checkpoint_opt.optimal_checkpoints ~t ~save ~k ()))
    [ (80.0, 4.0, 6); (80.0, 4.0, 2); (10.0, 1.0, 3); (40.0, 8.0, 1) ]

let test_checkpointing_rescues_fig3 () =
  (* Fig. 3's unhardened node misses the deadline with plain
     re-execution (SL 680); with 11 checkpoints at a 4 ms save the same
     node fits easily — the [15] technique in action. *)
  let problem = fig3 () in
  let design =
    Ftes_model.Design.make problem ~members:[| 0 |] ~levels:[| 1 |]
      ~reexecs:[| 6 |] ~mapping:[| 0 |]
  in
  let sl =
    Scheduler.schedule_length
      ~slack:(Scheduler.Checkpointed { kappa = [| 11 |]; save_ms = 4.0 })
      problem design
  in
  Alcotest.(check (float 1e-6)) "SL with checkpointing"
    (120.0 +. (6.0 *. ((80.0 /. 11.0) +. 20.0)))
    sl;
  Alcotest.(check bool) "now schedulable" true (sl <= 360.0)

let test_checkpoint_kappa_one_is_shared () =
  let problem = fig1 () in
  let design = Ftes_cc.Fig_examples.fig4a problem in
  let shared = Scheduler.schedule_length problem design in
  let ckpt =
    Scheduler.schedule_length
      ~slack:(Scheduler.Checkpointed { kappa = Array.make 4 1; save_ms = 3.0 })
      problem design
  in
  Alcotest.(check (float 1e-9)) "kappa = 1 everywhere = shared" shared ckpt

let test_checkpoint_optimize () =
  let problem = fig3 () in
  let design =
    Ftes_model.Design.make problem ~members:[| 0 |] ~levels:[| 1 |]
      ~reexecs:[| 6 |] ~mapping:[| 0 |]
  in
  let kappa, sl = Checkpoint_opt.optimize ~save_ms:4.0 problem design in
  Alcotest.(check bool) "splits the process" true (kappa.(0) > 1);
  Alcotest.(check bool) "beats plain re-execution" true (sl < 680.0);
  Alcotest.(check bool) "meets the deadline" true (sl <= 360.0)

let test_checkpoint_validation () =
  let problem = fig1 () in
  let design = Ftes_cc.Fig_examples.fig4a problem in
  Alcotest.check_raises "kappa length"
    (Invalid_argument "Scheduler.schedule: checkpoint vector length mismatch")
    (fun () ->
      ignore
        (Scheduler.schedule_length
           ~slack:(Scheduler.Checkpointed { kappa = [| 1 |]; save_ms = 1.0 })
           problem design));
  Alcotest.check_raises "kappa >= 1"
    (Invalid_argument "Scheduler.schedule: checkpoint counts must be >= 1")
    (fun () ->
      ignore
        (Scheduler.schedule_length
           ~slack:(Scheduler.Checkpointed { kappa = [| 1; 0; 1; 1 |]; save_ms = 1.0 })
           problem design))

(* --- Exhaustive reference --- *)

module Exhaustive = Ftes_core.Exhaustive

let small_problem seed = Helpers.small_problem ~n:6 seed

let test_exhaustive_search_space () =
  let problem = small_problem 1 in
  (* Two singletons (3 levels x 1 mapping... mappings = 1^6) plus the
     pair (9 level pairs x 2^6 mappings): 3 + 3 + 9*64 = 582. *)
  Alcotest.(check (float 1e-6)) "candidate count" 582.0
    (Exhaustive.search_space problem)

let test_exhaustive_limit () =
  let problem = Helpers.synthetic_problem ~n:20 () in
  Alcotest.(check bool) "large space rejected" true
    (try
       ignore (Exhaustive.run ~limit:1000 ~config:Config.default problem);
       false
     with Invalid_argument _ -> true)

let test_exhaustive_fig3 () =
  (* One process, one node, three levels: the optimum is the paper's
     h=2 at cost 20. *)
  let problem = fig3 () in
  match Exhaustive.run ~config:Config.default problem with
  | None -> Alcotest.fail "fig3 has a feasible design"
  | Some r ->
      Alcotest.(check (float 1e-9)) "optimal cost 20" 20.0 r.Redundancy_opt.cost

let test_exhaustive_result_feasible () =
  let problem = small_problem 2 in
  match Exhaustive.run ~config:Config.default problem with
  | None -> ()
  | Some r ->
      let d = r.Redundancy_opt.design in
      Alcotest.(check bool) "schedulable" true (Scheduler.is_schedulable problem d);
      Alcotest.(check bool) "reliable" true (Sfp.meets_goal problem d)

let test_heuristic_vs_exhaustive () =
  (* The heuristic never beats the exhaustive optimum, and on these tiny
     instances it should usually match it. *)
  List.iter
    (fun seed ->
      let problem = small_problem seed in
      let heuristic = Design_strategy.run ~config:Config.default problem in
      let exact = Exhaustive.run ~config:Config.default problem in
      match (heuristic, exact) with
      | Some h, Some e ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: heuristic %g >= optimum %g" seed
               h.Design_strategy.result.Redundancy_opt.cost
               e.Redundancy_opt.cost)
            true
            (h.Design_strategy.result.Redundancy_opt.cost
             >= e.Redundancy_opt.cost -. 1e-9)
      | Some _, None ->
          Alcotest.failf "seed %d: heuristic feasible but optimum missing" seed
      | None, _ -> ())
    [ 1; 2; 3; 4; 5 ]

let () =
  Alcotest.run "ftes_core"
    [ ( "re_execution_opt",
        [ Alcotest.test_case "fig4a k=(1,1)" `Quick test_reexec_fig4a;
          Alcotest.test_case "greedy largest gain" `Quick
            test_reexec_greedy_picks_largest_gain;
          Alcotest.test_case "k=0 when hardened" `Quick test_reexec_zero_when_reliable;
          Alcotest.test_case "unreachable with small kmax" `Quick
            test_reexec_unreachable_with_tiny_kmax;
          Alcotest.test_case "optimize updates design" `Quick
            test_reexec_optimize_sets_design ] );
      ( "redundancy_opt",
        [ Alcotest.test_case "fig3 picks h2" `Quick test_redundancy_fig3_opt;
          Alcotest.test_case "fixed MIN" `Quick test_redundancy_fixed_min;
          Alcotest.test_case "fixed MAX" `Quick test_redundancy_fixed_max;
          Alcotest.test_case "result feasible" `Quick test_redundancy_result_is_feasible;
          Alcotest.test_case "probe matches run" `Quick test_probe_matches_run;
          Alcotest.test_case "best-effort length" `Quick test_best_effort_length ] );
      ( "mapping_opt",
        [ Alcotest.test_case "initial mapping total" `Quick test_initial_mapping_total;
          Alcotest.test_case "single node" `Quick test_mapping_single_node;
          Alcotest.test_case "two nodes beat the paper" `Quick
            test_mapping_two_nodes_beats_paper;
          Alcotest.test_case "zero iterations keep initial" `Quick
            test_mapping_respects_initial;
          Alcotest.test_case "tabu no worse than greedy" `Quick
            test_tabu_no_worse_than_greedy ] );
      ( "design_strategy",
        [ Alcotest.test_case "architecture enumeration" `Quick
            test_architectures_by_speed;
          Alcotest.test_case "fig1 strategy" `Quick test_strategy_fig1;
          Alcotest.test_case "fig3 strategy picks cost 20" `Quick
            test_strategy_fig3_choice;
          Alcotest.test_case "OPT <= MAX on the CC" `Quick test_strategy_policies_order;
          Alcotest.test_case "acceptance" `Quick test_accepted;
          Alcotest.test_case "solution consistency" `Quick
            test_strategy_solution_consistency;
          Alcotest.test_case "OPT dominates the baselines" `Slow
            test_opt_dominates ] );
      ( "retry_opt",
        [ Alcotest.test_case "fig4a budgets" `Quick test_retry_fig4a;
          Alcotest.test_case "schedule length" `Quick test_retry_schedule_length;
          Alcotest.test_case "unreachable / fig3" `Quick test_retry_unreachable;
          Alcotest.test_case "per-process slack mode" `Quick
            test_per_process_slack_mode ] );
      ( "checkpointing",
        [ Alcotest.test_case "worst-case formula" `Quick test_checkpoint_formula;
          Alcotest.test_case "optimal counts" `Quick test_optimal_checkpoints;
          Alcotest.test_case "rescues fig3 h1" `Quick
            test_checkpointing_rescues_fig3;
          Alcotest.test_case "kappa=1 is shared" `Quick
            test_checkpoint_kappa_one_is_shared;
          Alcotest.test_case "optimize" `Quick test_checkpoint_optimize;
          Alcotest.test_case "validation" `Quick test_checkpoint_validation ] );
      ( "exhaustive",
        [ Alcotest.test_case "search space" `Quick test_exhaustive_search_space;
          Alcotest.test_case "limit guard" `Quick test_exhaustive_limit;
          Alcotest.test_case "fig3 optimum" `Quick test_exhaustive_fig3;
          Alcotest.test_case "result feasible" `Quick test_exhaustive_result_feasible;
          Alcotest.test_case "heuristic vs optimum" `Slow
            test_heuristic_vs_exhaustive ] ) ]
