module Problem = Ftes_model.Problem
module Platform = Ftes_model.Platform
module Design = Ftes_model.Design
module Sfp = Ftes_sfp.Sfp
module Scheduler = Ftes_sched.Scheduler
module Archive = Ftes_pareto.Archive

type solution = {
  result : Redundancy_opt.result;
  verdict : Sfp.verdict;
  schedule : Ftes_sched.Schedule.t;
  explored : int;
  sfp_tables : Sfp.node_analysis array;
}

let subset_speed problem members =
  Array.fold_left
    (fun acc j -> acc +. Platform.mean_wcet (Problem.node problem j) ~level:1)
    0.0 members

let architectures_by_speed problem ~n =
  let lib = Problem.n_library problem in
  if n < 1 || n > lib then []
  else begin
    (* Enumerate size-n subsets as sorted index arrays. *)
    let rec subsets start need =
      if need = 0 then [ [] ]
      else if start >= lib then []
      else begin
        let with_start =
          List.map (fun rest -> start :: rest) (subsets (start + 1) (need - 1))
        in
        with_start @ subsets (start + 1) need
      end
    in
    subsets 0 n
    |> List.map Array.of_list
    |> List.sort (fun a b ->
           compare (subset_speed problem a, a) (subset_speed problem b, b))
  end

let min_hardening_cost problem members =
  Array.fold_left
    (fun acc j -> acc +. Problem.min_cost problem ~node:j)
    0.0 members

let c_explored = Ftes_obs.Metrics.counter "strategy.explored"

let c_pruned = Ftes_obs.Metrics.counter "strategy.pruned"

let c_runs = Ftes_obs.Metrics.counter "strategy.runs"

(* One entry of the recorded walk: an evaluated architecture and its
   verdict.  Steps correspond 1:1 with [explored] increments. *)
type step = {
  step_members : int array;
  step_verdict : [ `Schedulable of float | `Unschedulable ];
}

let finalize ~config ~cache ~explored problem (result : Redundancy_opt.result)
    =
  Ftes_obs.Span.with_ ~name:"strategy/finalize" @@ fun () ->
  let design = result.Redundancy_opt.design in
  let schedule =
    Scheduler.schedule ~slack:config.Config.slack ~bus:config.Config.bus
      problem design
  in
  let sfp_tables =
    let sfp = Redundancy_opt.sfp_cache cache in
    Array.init (Design.n_members design) (fun member ->
        Ftes_par.Sfp_cache.node_analysis sfp problem design ~member
          ~kmax:(Sfp.analysis_kmax design ~member))
  in
  { result;
    verdict = Sfp.evaluate_analyses problem design ~analyses:sfp_tables;
    schedule;
    explored;
    sfp_tables }

(* The Fig. 5 walk, parameterized over a feasible-candidate hook.  Each
   size level is walked fastest first: an architecture whose
   minimum-hardening cost cannot beat the best so far is pruned (line
   6), any other is counted as explored and answered through
   {!Redundancy_opt.walk}, and the first unschedulable one ends the
   level (line 15).  [on_step] fires once per explored architecture,
   [on_feasible] once per feasible result of it (the schedule-length
   winner first, then the cost-refined mapping when one exists).
   Every entry point runs through here: one [strategy/run] span around
   the walk and the finalization of its best result. *)
let search ?cache ~config ~on_feasible ~on_step problem =
  Ftes_obs.Metrics.incr c_runs;
  Ftes_obs.Span.with_ ~name:"strategy/run" @@ fun () ->
  let lib = Problem.n_library problem in
  (* An externally supplied cache lets several runs over the same
     problem (e.g. a hardening-policy sweep) share evaluations; it must
     come from the same problem and a config differing at most in the
     hardening policy. *)
  let cache =
    match cache with
    | Some cache -> cache
    | None -> Redundancy_opt.create_cache ()
  in
  let explored = ref 0 in
  let best = ref None in
  let best_cost = ref infinity in
  (* The two mapping passes over one architecture: the schedule-length
     search, then the cost refinement from its winner.  [None] when the
     architecture is unschedulable, else the result and its feasible
     candidates in [on_feasible] order. *)
  let step members () =
    match
      Mapping_opt.run ~cache ~config
        ~objective:Mapping_opt.Schedule_length problem ~members
    with
    | None -> None
    | Some sl_result -> (
        match
          Mapping_opt.run ~cache ~config
            ~objective:Mapping_opt.Architecture_cost
            ~initial:sl_result.Redundancy_opt.design.Design.mapping problem
            ~members
        with
        | Some r when r.Redundancy_opt.cost <= sl_result.Redundancy_opt.cost ->
            Some (r, [ sl_result; r ])
        | Some r -> Some (sl_result, [ sl_result; r ])
        | None -> Some (sl_result, [ sl_result ]))
  in
  let rec size_level = function
    | [] -> ()
    | members :: rest when min_hardening_cost problem members >= !best_cost ->
        Ftes_obs.Metrics.incr c_pruned;
        size_level rest
    | members :: rest -> (
        incr explored;
        Ftes_obs.Metrics.incr c_explored;
        match Redundancy_opt.walk ~cache ~config ~members (step members) with
        | None ->
            on_step { step_members = members; step_verdict = `Unschedulable }
        | Some (result, candidates) ->
            on_step
              { step_members = members;
                step_verdict = `Schedulable result.Redundancy_opt.cost };
            List.iter on_feasible candidates;
            if result.Redundancy_opt.cost < !best_cost then begin
              best_cost := result.Redundancy_opt.cost;
              best := Some result
            end;
            size_level rest)
  in
  for n = 1 to lib do
    size_level (architectures_by_speed problem ~n)
  done;
  let explored = !explored in
  ( Option.map (finalize ~config ~cache ~explored problem) !best,
    explored,
    cache )

type recorded = {
  rec_problem : Problem.t;
  rec_config : Config.t;
  rec_cache : Redundancy_opt.cache;
  rec_trail : step list;
  rec_solution : solution option;
  rec_explored : int;
}

let run_recorded ?cache ~config problem =
  let steps = ref [] in
  let solution, explored, cache =
    search ?cache ~config
      ~on_feasible:(fun _ -> ())
      ~on_step:(fun step -> steps := step :: !steps)
      problem
  in
  { rec_problem = problem;
    rec_config = config;
    rec_cache = cache;
    rec_trail = List.rev !steps;
    rec_solution = solution;
    rec_explored = explored }

let run ?cache ~config problem =
  (run_recorded ?cache ~config problem).rec_solution

let step_equal a b =
  a.step_members = b.step_members
  &&
  match (a.step_verdict, b.step_verdict) with
  | `Unschedulable, `Unschedulable -> true
  | `Schedulable x, `Schedulable y -> Float.equal x y
  | _ -> false

let replayed_prefix base warm =
  let rec go n = function
    | a :: at, b :: bt when step_equal a b -> go (n + 1) (at, bt)
    | _ -> n
  in
  go 0 (base, warm)

let rerun ~from delta =
  match Ftes_whatif.Delta.apply from.rec_problem delta with
  | Error _ as e -> e
  | Ok perturbed ->
      let config =
        match Ftes_whatif.Delta.kmax_override delta with
        | Some kmax -> Config.with_kmax kmax from.rec_config
        | None -> from.rec_config
      in
      let footprint = Ftes_whatif.Delta.footprint from.rec_problem delta in
      let cache, migration =
        Redundancy_opt.migrate_cache ~base:from.rec_problem ~footprint
          from.rec_cache
      in
      let warm = run_recorded ~cache ~config perturbed in
      let reuse =
        { Ftes_whatif.Reuse.delta_class = Ftes_whatif.Delta.class_name delta;
          sfp_kept = migration.Redundancy_opt.mig_sfp_kept;
          sfp_dropped = migration.Redundancy_opt.mig_sfp_dropped;
          evals_kept = migration.Redundancy_opt.mig_evals_kept;
          evals_dropped = migration.Redundancy_opt.mig_evals_dropped;
          probes_kept = migration.Redundancy_opt.mig_probes_kept;
          probes_dropped = migration.Redundancy_opt.mig_probes_dropped;
          steps_replayed = replayed_prefix from.rec_trail warm.rec_trail;
          steps_total = List.length warm.rec_trail }
      in
      Ok (warm, reuse)

type frontier = {
  archive : Archive.t;
  best : solution option;
  explored : int;
}

let run_frontier ?cache ?spec ~config problem =
  let archive = Archive.create ?spec () in
  let on_feasible (r : Redundancy_opt.result) =
    Archive.insert archive
      { Archive.design = r.Redundancy_opt.design;
        cost = r.Redundancy_opt.cost;
        slack = r.Redundancy_opt.slack;
        margin = r.Redundancy_opt.margin }
  in
  let best, explored, _ =
    search ?cache ~config ~on_feasible
      ~on_step:(fun _ -> ())
      problem
  in
  { archive; best; explored }

let accepted ?max_cost = function
  | None -> false
  | Some solution -> (
      match max_cost with
      | None -> true
      | Some bound ->
          Ftes_util.Tolerance.leq ~eps:Ftes_util.Tolerance.cost_eps
            solution.result.Redundancy_opt.cost bound)
