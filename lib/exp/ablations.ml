module Workload = Ftes_gen.Workload
module Config = Ftes_core.Config
module Design_strategy = Ftes_core.Design_strategy
module Redundancy_opt = Ftes_core.Redundancy_opt
module Scheduler = Ftes_sched.Scheduler
module Text_table = Ftes_util.Text_table
module Prng = Ftes_util.Prng
module Executor = Ftes_faultsim.Executor

let population ~count ~seed =
  List.init count (fun index ->
      let n_processes = if index mod 2 = 0 then 20 else 40 in
      Workload.generate_spec ~seed ~index ~n_processes ())

(* Minimum-hardening design on the full library with the greedy initial
   mapping — the common starting point of the per-node analyses. *)
let design_on_all_nodes problem =
  let m = Ftes_model.Problem.n_library problem in
  let members = Array.init m Fun.id in
  let mapping = Ftes_core.Mapping_opt.initial_mapping problem ~members in
  Ftes_model.Design.make problem ~members ~levels:(Array.make m 1)
    ~reexecs:(Array.make m 0) ~mapping

type slack_row = { mode : string; feasible_pct : float; mean_cost : float }

let slack_ablation ?pool ?(count = 40) ~seed () =
  let specs = population ~count ~seed in
  let cell = { Workload.ser = 1e-11; hpd = 0.25 } in
  let modes =
    [ ("shared (paper)", Scheduler.Shared);
      ("conservative", Scheduler.Conservative);
      ("dedicated", Scheduler.Dedicated) ]
  in
  let runs =
    List.map
      (fun (name, slack) ->
        let config = Config.with_slack slack Config.default in
        let costs =
          Ftes_par.Pool.map ?pool
            (fun spec ->
              let problem = Workload.problem_of_spec cell spec in
              Design_strategy.run ~config problem
              |> Option.map (fun (s : Design_strategy.solution) ->
                     s.Design_strategy.result.Redundancy_opt.cost))
            specs
        in
        (name, costs))
      modes
  in
  (* Mean cost over the apps feasible under every mode, so the cost
     columns compare like with like. *)
  let all_feasible =
    List.init count (fun i ->
        List.for_all (fun (_, costs) -> List.nth costs i <> None) runs)
  in
  List.map
    (fun (mode, costs) ->
      let feasible =
        List.length (List.filter Option.is_some costs)
      in
      let common =
        List.filteri (fun i _ -> List.nth all_feasible i) costs
        |> List.filter_map Fun.id
      in
      { mode;
        feasible_pct = 100.0 *. float_of_int feasible /. float_of_int count;
        mean_cost = Ftes_util.Stats.mean common })
    runs

let render_slack rows =
  let table =
    Text_table.create
      ~headers:[ "slack policy"; "feasible %"; "mean cost (common apps)" ]
  in
  List.iter
    (fun r ->
      Text_table.add_row table
        [ r.mode;
          Printf.sprintf "%.1f" r.feasible_pct;
          Printf.sprintf "%.2f" r.mean_cost ])
    rows;
  "Ablation: recovery-slack policy (OPT strategy, SER = 1e-11, HPD = 25%)\n"
  ^ Text_table.render table

type mapping_row = {
  variant : string;
  acceptance_at_20 : float;
  mean_cost : float;
}

let mapping_ablation ?pool ?(count = 40) ~seed () =
  let specs = population ~count ~seed in
  let cell = { Workload.ser = 1e-11; hpd = 0.25 } in
  let variants =
    [ ("tabu search (paper)", Config.default);
      ( "greedy initial mapping only",
        Config.with_max_iterations 0 Config.default ) ]
  in
  List.map
    (fun (variant, config) ->
      let costs =
        Ftes_par.Pool.map ?pool
          (fun spec ->
            let problem = Workload.problem_of_spec cell spec in
            Design_strategy.run ~config problem
            |> Option.map (fun (s : Design_strategy.solution) ->
                   s.Design_strategy.result.Redundancy_opt.cost))
          specs
        |> List.filter_map Fun.id
      in
      let accepted = List.filter (fun c -> c <= 20.0 +. 1e-9) costs in
      { variant;
        acceptance_at_20 =
          100.0 *. float_of_int (List.length accepted) /. float_of_int count;
        mean_cost = Ftes_util.Stats.mean costs })
    variants

let render_mapping rows =
  let table =
    Text_table.create
      ~headers:[ "mapping optimization"; "accepted % (ArC=20)"; "mean cost" ]
  in
  List.iter
    (fun r ->
      Text_table.add_row table
        [ r.variant;
          Printf.sprintf "%.1f" r.acceptance_at_20;
          Printf.sprintf "%.2f" r.mean_cost ])
    rows;
  "Ablation: tabu mapping search vs greedy mapping (OPT, SER = 1e-11, HPD = 25%)\n"
  ^ Text_table.render table

type bound_row = {
  ser : float;
  mean_extra_k : float;
  exact_mean_k : float;
  bound_mean_k : float;
  bound_unreachable_pct : float;
}

let bound_ablation ?(count = 30) ~seed () =
  let specs = population ~count ~seed in
  List.map
    (fun ser ->
      let cell = { Workload.ser; hpd = 0.25 } in
      let exact_total = ref 0 and bound_total = ref 0 in
      let nodes = ref 0 and unreachable = ref 0 in
      List.iter
        (fun (spec : Workload.app_spec) ->
          let problem = Workload.problem_of_spec cell spec in
          let design = design_on_all_nodes problem in
          let app = problem.Ftes_model.Problem.app in
          let members = Ftes_model.Design.n_members design in
          (* Even split of the per-iteration failure budget over nodes:
             the engineering rule a designer would apply by hand. *)
          let budget =
            app.Ftes_model.Application.gamma
            /. Float.ceil (Ftes_model.Application.iterations_per_hour app)
            /. float_of_int members
          in
          for member = 0 to members - 1 do
            let p = Ftes_model.Design.pfail_vector problem design ~member in
            if Array.length p > 0 then begin
              let analysis = Ftes_sfp.Sfp.node_analysis p in
              let rec exact_k k =
                if k > Ftes_sfp.Sfp.kmax analysis then None
                else if Ftes_sfp.Sfp.pr_exceeds analysis ~k <= budget then Some k
                else exact_k (k + 1)
              in
              match exact_k 0 with
              | None -> () (* budget unreachable even exactly; skip node *)
              | Some ke ->
                  incr nodes;
                  exact_total := !exact_total + ke;
                  (match
                     Ftes_sfp.Bound.required_k p ~budget
                       ~kmax:Ftes_sfp.Sfp.default_kmax
                   with
                  | Some kb -> bound_total := !bound_total + kb
                  | None ->
                      incr unreachable;
                      bound_total := !bound_total + ke)
            end
          done)
        specs;
      let nodes_f = float_of_int (max 1 !nodes) in
      { ser;
        mean_extra_k = float_of_int (!bound_total - !exact_total) /. nodes_f;
        exact_mean_k = float_of_int !exact_total /. nodes_f;
        bound_mean_k = float_of_int !bound_total /. nodes_f;
        bound_unreachable_pct = 100.0 *. float_of_int !unreachable /. nodes_f })
    [ 1e-12; 1e-11; 1e-10 ]

let render_bound rows =
  let table =
    Text_table.create
      ~headers:
        [ "SER"; "mean k (exact)"; "mean k (bound)"; "extra k / node";
          "bound fails %" ]
  in
  List.iter
    (fun r ->
      Text_table.add_row table
        [ Printf.sprintf "%g" r.ser;
          Printf.sprintf "%.2f" r.exact_mean_k;
          Printf.sprintf "%.2f" r.bound_mean_k;
          Printf.sprintf "%.2f" r.mean_extra_k;
          Printf.sprintf "%.1f" r.bound_unreachable_pct ])
    rows;
  "Ablation: exact SFP analysis (Appendix A) vs the closed-form\n\
   S^(k+1)/(1-S) bound, re-executions needed per node for an even budget\n\
   split\n"
  ^ Text_table.render table

type gap_row = {
  instances : int;
  both_feasible : int;
  heuristic_optimal : int;
  mean_gap_pct : float;
  max_gap_pct : float;
}

let small_params =
  { Workload.default_params with
    Ftes_gen.Workload.n_library = 2;
    levels = 3 }

let optimality_gap ?(count = 12) ?(n_processes = 7) ~seed () =
  let config = Config.default in
  let gaps = ref [] in
  let both = ref 0 and optimal = ref 0 in
  for index = 0 to count - 1 do
    let spec =
      Workload.generate_spec ~params:small_params ~seed ~index ~n_processes ()
    in
    let problem =
      Workload.problem_of_spec ~params:small_params
        { Workload.ser = 1e-11; hpd = 0.25 }
        spec
    in
    let { Ftes_bnb.Bnb.certificate; _ } = Ftes_bnb.Bnb.solve ~config problem in
    match Ftes_analyze.Bnb_certificate.gap certificate with
    | Some gap ->
        incr both;
        if gap <= 1e-9 then incr optimal;
        gaps := gap :: !gaps
    | None -> ()
  done;
  { instances = count;
    both_feasible = !both;
    heuristic_optimal = !optimal;
    mean_gap_pct = 100.0 *. Ftes_util.Stats.mean !gaps;
    max_gap_pct =
      100.0 *. List.fold_left Float.max 0.0 !gaps }

let render_gap r =
  Printf.sprintf
    "Ablation: heuristic vs exhaustive optimum on small instances\n\
    \  instances            %d\n\
    \  both feasible        %d\n\
    \  heuristic == optimum %d\n\
    \  mean cost gap        %.1f%%\n\
    \  max cost gap         %.1f%%\n"
    r.instances r.both_feasible r.heuristic_optimal r.mean_gap_pct
    r.max_gap_pct

type policy_row = {
  policy : string;
  schedulable_pct : float;
  mean_sl_ratio : float;
}

let retry_policy_comparison ?(count = 30) ~seed () =
  let specs = population ~count ~seed in
  let cell = { Workload.ser = 1e-11; hpd = 0.25 } in
  let samples =
    List.filter_map
      (fun spec ->
        let problem = Workload.problem_of_spec cell spec in
        match Design_strategy.run ~config:Config.default problem with
        | None -> None
        | Some s ->
            let design = s.Design_strategy.result.Redundancy_opt.design in
            let deadline =
              problem.Ftes_model.Problem.app.Ftes_model.Application.deadline_ms
            in
            (* The optimizer ran under the default (shared-slack, FCFS)
               policies, so its result already carries this length. *)
            let shared = s.Design_strategy.result.Redundancy_opt.schedule_length in
            let dedicated =
              Scheduler.schedule_length ~slack:Scheduler.Dedicated problem
                design
            in
            let per_process =
              Ftes_core.Retry_opt.optimize problem design
              |> Option.map (fun (_, sl) -> sl)
            in
            Some (deadline, shared, dedicated, per_process))
      specs
  in
  let total = float_of_int (max 1 (List.length samples)) in
  let summarize policy extract =
    let schedulable = ref 0 and ratios = ref [] in
    List.iter
      (fun ((deadline, shared, _, _) as sample) ->
        match extract sample with
        | None -> ()
        | Some sl ->
            if sl <= deadline +. 1e-9 then incr schedulable;
            if shared > 0.0 then ratios := (sl /. shared) :: !ratios)
      samples;
    { policy;
      schedulable_pct = 100.0 *. float_of_int !schedulable /. total;
      mean_sl_ratio = Ftes_util.Stats.mean !ratios }
  in
  [ summarize "shared per-node k (paper)" (fun (_, shared, _, _) -> Some shared);
    summarize "same k, dedicated slack" (fun (_, _, dedicated, _) ->
        Some dedicated);
    summarize "per-process retry budgets" (fun (_, _, _, pp) -> pp) ]

let render_policy rows =
  let table =
    Text_table.create
      ~headers:
        [ "software-redundancy policy"; "designs still schedulable %";
          "mean SL vs shared" ]
  in
  List.iter
    (fun r ->
      Text_table.add_row table
        [ r.policy;
          Printf.sprintf "%.1f" r.schedulable_pct;
          Printf.sprintf "%.2fx" r.mean_sl_ratio ])
    rows;
  "Ablation: software-redundancy policy on fixed OPT designs\n"
  ^ Text_table.render table

type checkpoint_row = {
  save_label : string;
  mean_sl_reduction_pct : float;
  rescued : int;
  total : int;
}

let checkpoint_ablation ?(count = 30) ~seed () =
  let specs = population ~count ~seed in
  let cell = { Workload.ser = 1e-10; hpd = 0.25 } in
  (* Minimum-hardening designs need the most software redundancy, so
     checkpointing has the most slack to reclaim there. *)
  let cases =
    List.filter_map
      (fun spec ->
        let problem = Workload.problem_of_spec cell spec in
        let base = design_on_all_nodes problem in
        match Ftes_core.Re_execution_opt.optimize problem base with
        | None -> None
        | Some design ->
            let deadline =
              problem.Ftes_model.Problem.app.Ftes_model.Application.deadline_ms
            in
            let mu =
              problem.Ftes_model.Problem.app
                .Ftes_model.Application.recovery_overhead_ms
            in
            let plain = Scheduler.schedule_length problem design in
            Some (problem, design, deadline, mu, plain))
      specs
  in
  let total = List.length cases in
  List.map
    (fun (label, fraction) ->
      let reductions = ref [] and rescued = ref 0 in
      List.iter
        (fun (problem, design, deadline, mu, plain) ->
          let _, ckpt =
            Ftes_core.Checkpoint_opt.optimize ~save_ms:(fraction *. mu) problem
              design
          in
          if plain > 0.0 then
            reductions := (100.0 *. (plain -. ckpt) /. plain) :: !reductions;
          if plain > deadline +. 1e-9 && ckpt <= deadline +. 1e-9 then
            incr rescued)
        cases;
      { save_label = label;
        mean_sl_reduction_pct = Ftes_util.Stats.mean !reductions;
        rescued = !rescued;
        total })
    [ ("save = mu/4", 0.25); ("save = mu/2", 0.5); ("save = mu", 1.0) ]

let render_checkpoint rows =
  let table =
    Text_table.create
      ~headers:
        [ "checkpoint save cost"; "mean SL reduction %";
          "unschedulable apps rescued" ]
  in
  List.iter
    (fun r ->
      Text_table.add_row table
        [ r.save_label;
          Printf.sprintf "%.1f" r.mean_sl_reduction_pct;
          Printf.sprintf "%d / %d" r.rescued r.total ])
    rows;
  "Extension: checkpointed recovery vs plain re-execution on\n\
   minimum-hardening designs (SER = 1e-10, HPD = 25%)\n"
  ^ Text_table.render table

type exact_row = {
  app : string;
  shared_ms : float;
  exact_ms : float;
  conservative_ms : float;
  certified_optimistic : bool;
}

let exact_worst_case ?(count = 8) ?(n_processes = 8) ~seed () =
  let params =
    { Workload.default_params with Ftes_gen.Workload.n_library = 2; levels = 5 }
  in
  List.filter_map
    (fun index ->
      let spec =
        Workload.generate_spec ~params ~seed ~index ~n_processes ()
      in
      let problem =
        Workload.problem_of_spec ~params
          { Workload.ser = 1e-10; hpd = 0.25 }
          spec
      in
      match Design_strategy.run ~config:Config.default problem with
      | None -> None
      | Some s ->
          let design = s.Design_strategy.result.Redundancy_opt.design in
          if Ftes_faultsim.Scenarios.count_scenarios design > 100_000.0 then
            None
          else begin
            let r = Ftes_faultsim.Scenarios.worst_case problem design in
            Some
              { app = Printf.sprintf "small-%03d" index;
                shared_ms = r.Ftes_faultsim.Scenarios.shared_bound_ms;
                exact_ms = r.Ftes_faultsim.Scenarios.exact_worst_ms;
                conservative_ms =
                  r.Ftes_faultsim.Scenarios.conservative_bound_ms;
                certified_optimistic =
                  Ftes_faultsim.Scenarios.optimism_certificate r }
          end)
    (List.init count Fun.id)

let render_exact rows =
  let table =
    Text_table.create
      ~headers:
        [ "application"; "shared SL (paper)"; "exact worst case";
          "conservative SL"; "shared bound optimistic?" ]
  in
  List.iter
    (fun r ->
      Text_table.add_row table
        [ r.app;
          Printf.sprintf "%.1f" r.shared_ms;
          Printf.sprintf "%.1f" r.exact_ms;
          Printf.sprintf "%.1f" r.conservative_ms;
          (if r.certified_optimistic then "yes" else "no") ])
    rows;
  "Exact worst case (exhaustive fault-scenario replay) vs the two\n\
   schedule bounds, on OPT designs of small instances\n"
  ^ Text_table.render table

type runtime_row = {
  n_procs : int;
  mean_opt_s : float;
  max_opt_s : float;
}

let runtime_study ?(per_size = 5) ~seed () =
  List.map
    (fun n_procs ->
      let times =
        List.init per_size (fun index ->
            let spec =
              Workload.generate_spec ~seed ~index ~n_processes:n_procs ()
            in
            let problem =
              Workload.problem_of_spec { Workload.ser = 1e-11; hpd = 0.25 } spec
            in
            let t0 = Sys.time () in
            ignore (Design_strategy.run ~config:Config.default problem);
            Sys.time () -. t0)
      in
      { n_procs;
        mean_opt_s = Ftes_util.Stats.mean times;
        max_opt_s = List.fold_left Float.max 0.0 times })
    [ 10; 20; 30; 40 ]

let render_runtime rows =
  let table =
    Text_table.create
      ~headers:[ "processes"; "mean OPT time (s)"; "max OPT time (s)" ]
  in
  List.iter
    (fun r ->
      Text_table.add_row table
        [ string_of_int r.n_procs;
          Printf.sprintf "%.3f" r.mean_opt_s;
          Printf.sprintf "%.3f" r.max_opt_s ])
    rows;
  "Runtime scaling of the OPT strategy (the paper reports 3-60 minutes\n\
   per application on a 2.8 GHz Pentium 4)\n"
  ^ Text_table.render table

type optimism_row = {
  app : string;
  boost : float;
  predicted : float;
  observed : float;
  surviving_deadline_miss_rate : float;
}

let optimism ?pool ?(count = 5) ?(trials = 20_000) ?(boost = 2000.0) ~seed () =
  let specs = population ~count ~seed in
  let cell = { Workload.ser = 1e-11; hpd = 0.25 } in
  (* Streams are split from the master PRNG in spec order before any
     parallelism, so the campaign of each application is bit-identical
     across domain counts. *)
  let master = Prng.create seed in
  Ftes_par.Pool.map_seeded ?pool ~prng:master
    (fun prng (spec : Workload.app_spec) ->
      let problem = Workload.problem_of_spec cell spec in
      match Design_strategy.run ~config:Config.default problem with
      | None -> None
      | Some s ->
          let design = s.Design_strategy.result.Redundancy_opt.design in
          let schedule = Scheduler.schedule problem design in
          let deadline =
            problem.Ftes_model.Problem.app.Ftes_model.Application.deadline_ms
          in
          let failures = ref 0 and survived = ref 0 and misses = ref 0 in
          for _ = 1 to trials do
            let o = Executor.run_iteration ~boost prng problem design schedule in
            match o.Executor.failed_node with
            | Some _ -> incr failures
            | None ->
                incr survived;
                if o.Executor.makespan > deadline +. 1e-9 then incr misses
          done;
          let campaign =
            Executor.run_campaign ~boost prng problem design ~trials:1
          in
          Some
            { app = Printf.sprintf "synthetic-%03d" spec.Workload.index;
              boost;
              predicted = campaign.Executor.predicted_failure_rate;
              observed = float_of_int !failures /. float_of_int trials;
              surviving_deadline_miss_rate =
                (if !survived = 0 then 0.0
                 else float_of_int !misses /. float_of_int !survived) })
    specs
  |> List.filter_map Fun.id

let render_optimism rows =
  let table =
    Text_table.create
      ~headers:
        [ "application"; "boost"; "SFP predicted"; "observed"; "miss rate | survived" ]
  in
  List.iter
    (fun r ->
      Text_table.add_row table
        [ r.app;
          Printf.sprintf "%.0fx" r.boost;
          Printf.sprintf "%.2e" r.predicted;
          Printf.sprintf "%.2e" r.observed;
          Printf.sprintf "%.4f" r.surviving_deadline_miss_rate ])
    rows;
  "Fault-injection validation: SFP formula (5) vs Monte-Carlo (boosted\n\
   probabilities), and the shared-slack optimism (fraction of\n\
   within-budget runs finishing after the deadline)\n"
  ^ Text_table.render table
