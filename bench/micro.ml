(* Bechamel micro-benchmarks of the kernels behind each reproduced
   artifact: the SFP analysis (both the O(n*k) dynamic program and the
   exponential multiset enumeration it replaces), the recovery-slack
   scheduler, the three optimization layers, the fault-injection
   simulator and the workload generator. *)

open Bechamel
open Toolkit

module Workload = Ftes_gen.Workload
module Design = Ftes_model.Design
module Scheduler = Ftes_sched.Scheduler
module Sfp = Ftes_sfp.Sfp
module Config = Ftes_core.Config

let sample_problem =
  lazy
    (let spec = Workload.generate_spec ~seed:7 ~index:0 ~n_processes:40 () in
     Workload.problem_of_spec { Workload.ser = 1e-11; hpd = 0.25 } spec)

let sample_design =
  lazy
    (let problem = Lazy.force sample_problem in
     let members = [| 0; 1; 2; 3 |] in
     let mapping =
       Ftes_core.Mapping_opt.initial_mapping ~config:Config.default problem
         ~members
     in
     Design.make problem ~members ~levels:[| 1; 1; 1; 1 |]
       ~reexecs:[| 2; 2; 2; 2 |] ~mapping)

let sample_probs n =
  Array.init n (fun i -> 1e-5 *. float_of_int (1 + (i mod 7)))

let test_sfp_dp =
  let probs = sample_probs 20 in
  Test.make ~name:"sfp: node analysis DP (20 procs, k<=12)"
    (Staged.stage (fun () ->
         let a = Sfp.node_analysis probs in
         Sfp.pr_exceeds a ~k:5))

let test_sfp_enum =
  let probs = sample_probs 6 in
  Test.make ~name:"sfp: multiset enumeration (6 procs, k=3)"
    (Staged.stage (fun () -> Sfp.pr_exceeds_enumerated probs ~k:3))

let test_scheduler =
  Test.make ~name:"sched: root schedule (40 procs, 4 nodes)"
    (Staged.stage (fun () ->
         let problem = Lazy.force sample_problem in
         let design = Lazy.force sample_design in
         Scheduler.schedule_length problem design))

let test_reexec =
  Test.make ~name:"opt: ReExecutionOpt (40 procs, 4 nodes)"
    (Staged.stage (fun () ->
         let problem = Lazy.force sample_problem in
         let design = Lazy.force sample_design in
         Ftes_core.Re_execution_opt.for_mapping problem design))

let test_redundancy =
  Test.make ~name:"opt: RedundancyOpt probe (40 procs, 4 nodes)"
    (Staged.stage (fun () ->
         let problem = Lazy.force sample_problem in
         let design = Lazy.force sample_design in
         Ftes_core.Redundancy_opt.probe
           ~cache:(Ftes_core.Redundancy_opt.create_cache ~capacity:0 ())
           ~config:Config.default problem design))

let test_mapping =
  Test.make ~name:"opt: MappingAlgorithm tabu run (20 procs, 2 nodes)"
    (Staged.stage
       (let spec = Workload.generate_spec ~seed:9 ~index:1 ~n_processes:20 () in
        let problem =
          Workload.problem_of_spec { Workload.ser = 1e-11; hpd = 0.25 } spec
        in
        fun () ->
          Ftes_core.Mapping_opt.run
            ~cache:(Ftes_core.Redundancy_opt.create_cache ~capacity:0 ())
            ~config:Config.default
            ~objective:Ftes_core.Mapping_opt.Schedule_length problem
            ~members:[| 0; 1 |]))

let test_strategy =
  Test.make ~name:"opt: DesignStrategy OPT (fig1 example)"
    (Staged.stage
       (let problem = Ftes_cc.Fig_examples.fig1_problem () in
        fun () -> Ftes_core.Design_strategy.run ~config:Config.default problem))

let test_simulator =
  Test.make ~name:"faultsim: one injected iteration (40 procs)"
    (Staged.stage
       (let problem = Lazy.force sample_problem in
        let design = Lazy.force sample_design in
        let schedule = Scheduler.schedule problem design in
        let prng = Ftes_util.Prng.create 11 in
        fun () ->
          Ftes_faultsim.Executor.run_iteration ~boost:1000.0 prng problem
            design schedule))

let test_generator =
  Test.make ~name:"gen: 40-process application spec"
    (Staged.stage
       (let counter = ref 0 in
        fun () ->
          incr counter;
          Workload.generate_spec ~seed:13 ~index:!counter ~n_processes:40 ()))

let test_pool_map =
  Test.make ~name:"par: Pool.map overhead (2 domains, 64 tiny tasks)"
    (Staged.stage
       (let pool = Ftes_par.Pool.create ~domains:2 () in
        let xs = List.init 64 Fun.id in
        fun () -> Ftes_par.Pool.map ~pool (fun x -> x * x) xs))

let test_sfp_cache =
  Test.make ~name:"par: Sfp_cache hit (4 members, k<=12)"
    (Staged.stage
       (let problem = Lazy.force sample_problem in
        let design = Lazy.force sample_design in
        let cache = Ftes_par.Sfp_cache.create () in
        fun () ->
          Ftes_par.Sfp_cache.node_analysis cache problem design ~member:0
            ~kmax:12))

let test_redundancy_cached =
  Test.make ~name:"opt: RedundancyOpt probe, memoized (40 procs, 4 nodes)"
    (Staged.stage
       (let problem = Lazy.force sample_problem in
        let design = Lazy.force sample_design in
        let cache = Ftes_core.Redundancy_opt.create_cache () in
        fun () ->
          Ftes_core.Redundancy_opt.probe ~cache ~config:Config.default problem
            design))

let tests =
  [ test_sfp_dp; test_sfp_enum; test_scheduler; test_reexec; test_redundancy;
    test_redundancy_cached; test_mapping; test_strategy; test_simulator;
    test_generator; test_pool_map; test_sfp_cache ]

let run () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] -> Printf.printf "  %-48s %12.1f ns/run\n%!" name ns
          | Some _ | None -> Printf.printf "  %-48s (no estimate)\n%!" name)
        results)
    tests
