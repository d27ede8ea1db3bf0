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

let c_pruned_architectures =
  Ftes_obs.Metrics.counter "analyze.pruned_architectures"

(* One entry of the recorded walk: an evaluated architecture and its
   verdict.  Steps correspond 1:1 with [explored] increments, which are
   bit-identical across pool modes, so the trail is too. *)
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
   size level is walked fastest first in batches: a batch is scored by
   [Pool.map] (speculatively, beyond the walk's stopping point, when it
   holds more than one candidate) and then merged in speed order.  The
   scoring does no bookkeeping; the ordered merge is the only place
   that counts, records, fires [on_step] / [on_feasible] and stops at
   line 15, so every counter, the trail and the hook sequence are the
   same whatever the batch size or domain count.  [on_feasible] fires
   once per feasible result of an evaluated architecture (the
   schedule-length winner first, then the cost-refined mapping when one
   exists), [on_step] once per evaluated architecture.  Every entry
   point runs through here: one [strategy/run] span around the walk and
   the finalization of its best result. *)
let search ?pool ?cache ?preflight ~config ~on_feasible ~on_step problem =
  Ftes_obs.Metrics.incr c_runs;
  Ftes_obs.Span.with_ ~name:"strategy/run" @@ fun () ->
  Option.iter (Redundancy_opt.validate_preflight ~config problem) preflight;
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
  (* Score one candidate against the best cost at batch entry: its
     minimum-hardening cost and a verdict.  Line 6 (cannot beat the
     best-so-far) and the pre-flight proof (every mapping onto the
     architecture is unreliable or over-deadline, so the tabu search
     would only see futile probes) both come back as verdicts without a
     mapping search. *)
  let score ~bound members =
    let floor = min_hardening_cost problem members in
    let verdict =
      if floor >= bound then `Pruned
      else if
        match preflight with
        | None -> false
        | Some pf -> (
            match Ftes_analyze.Preflight.architecture_check pf ~members with
            | `Feasible -> false
            | `Unreliable _ | `Deadline _ -> true)
      then `Dead
      else
        match
          Mapping_opt.run ~cache ?pool ?preflight ~config
            ~objective:Mapping_opt.Schedule_length problem ~members
        with
        | None -> `Unschedulable
        | Some sl_result ->
            let refined =
              Mapping_opt.run ~cache ?pool ?preflight ~config
                ~objective:Mapping_opt.Architecture_cost
                ~initial:sl_result.Redundancy_opt.design.Design.mapping problem
                ~members
            in
            let result, candidates =
              match refined with
              | Some r
                when r.Redundancy_opt.cost <= sl_result.Redundancy_opt.cost ->
                  (r, [ sl_result; r ])
              | Some r -> (sl_result, [ sl_result; r ])
              | None -> (sl_result, [ sl_result ])
            in
            `Schedulable (result, candidates)
    in
    (members, floor, verdict)
  in
  (* Merge one scored batch in speed order; false when the walk must
     jump to the next size (an evaluated architecture was unschedulable:
     Fig. 5 line 15).  The prune test is re-run against the current best
     cost: it only decreases, so a candidate pruned at batch entry is
     pruned here too, and one scored at batch entry may still be. *)
  let rec merge = function
    | [] -> true
    | (members, floor, verdict) :: rest ->
        if floor >= !best_cost then begin
          Ftes_obs.Metrics.incr c_pruned;
          merge rest
        end
        else begin
          incr explored;
          Ftes_obs.Metrics.incr c_explored;
          let unschedulable () =
            on_step { step_members = members; step_verdict = `Unschedulable };
            false
          in
          match verdict with
          | `Dead ->
              Ftes_obs.Metrics.incr c_pruned_architectures;
              unschedulable ()
          | `Pruned (* unreachable: pruned above *) | `Unschedulable ->
              unschedulable ()
          | `Schedulable (result, candidates) ->
              on_step
                { step_members = members;
                  step_verdict = `Schedulable result.Redundancy_opt.cost };
              List.iter on_feasible candidates;
              if result.Redundancy_opt.cost < !best_cost then begin
                best_cost := result.Redundancy_opt.cost;
                best := Some result
              end;
              merge rest
        end
  in
  (* Speculation needs spare domains: one candidate per batch walks the
     level lazily, exactly as far as the merge goes. *)
  let batch_size =
    match pool with
    | Some pool
      when Ftes_par.Pool.domains pool > 1 && not (Ftes_par.Pool.in_worker ())
      ->
        2 * Ftes_par.Pool.domains pool
    | Some _ | None -> 1
  in
  let rec take n = function
    | x :: rest when n > 0 ->
        let taken, rest = take (n - 1) rest in
        (x :: taken, rest)
    | rest -> ([], rest)
  in
  let rec size_level = function
    | [] -> ()
    | queue ->
        let batch, rest = take batch_size queue in
        let bound = !best_cost in
        if merge (Ftes_par.Pool.map ?pool (score ~bound) batch) then
          size_level rest
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
  rec_preflight : Ftes_analyze.Preflight.t option;
  rec_trail : step list;
  rec_solution : solution option;
  rec_explored : int;
}

let run_recorded ?pool ?cache ?preflight ~config problem =
  let steps = ref [] in
  let solution, explored, cache =
    search ?pool ?cache ?preflight ~config
      ~on_feasible:(fun _ -> ())
      ~on_step:(fun step -> steps := step :: !steps)
      problem
  in
  { rec_problem = problem;
    rec_config = config;
    rec_cache = cache;
    rec_preflight = preflight;
    rec_trail = List.rev !steps;
    rec_solution = solution;
    rec_explored = explored }

let run ?pool ?cache ?preflight ~config problem =
  (run_recorded ?pool ?cache ?preflight ~config problem).rec_solution

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

let rerun ?pool ~from delta =
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
      (* Pre-flight reuse: only when the delta provably cannot weaken
         the report (tightening-only), and then the stored witnesses are
         re-checked — not re-derived — against the perturbed tables.
         Pruning is bit-invisible either way, so dropping the report on
         a weakening delta costs speed, never correctness. *)
      let preflight, preflight_reused, witnesses_rechecked =
        match from.rec_preflight with
        | Some pf
          when Ftes_whatif.Delta.cannot_weaken from.rec_problem delta
               && Ftes_analyze.Preflight.recheck pf perturbed ->
            ( Some (Ftes_analyze.Preflight.retarget pf perturbed),
              true,
              List.length pf.Ftes_analyze.Preflight.witnesses )
        | _ -> (None, false, 0)
      in
      let warm = run_recorded ?pool ~cache ?preflight ~config perturbed in
      let reuse =
        { Ftes_whatif.Reuse.delta_class = Ftes_whatif.Delta.class_name delta;
          sfp_kept = migration.Redundancy_opt.mig_sfp_kept;
          sfp_dropped = migration.Redundancy_opt.mig_sfp_dropped;
          evals_kept = migration.Redundancy_opt.mig_evals_kept;
          evals_dropped = migration.Redundancy_opt.mig_evals_dropped;
          probes_kept = migration.Redundancy_opt.mig_probes_kept;
          probes_dropped = migration.Redundancy_opt.mig_probes_dropped;
          steps_replayed = replayed_prefix from.rec_trail warm.rec_trail;
          steps_total = List.length warm.rec_trail;
          preflight_reused;
          witnesses_rechecked }
      in
      Ok (warm, reuse)

type frontier = {
  archive : Archive.t;
  best : solution option;
  explored : int;
}

let run_frontier ?pool ?cache ?preflight ?spec ~config problem =
  let archive = Archive.create ?spec () in
  let on_feasible (r : Redundancy_opt.result) =
    Archive.insert archive
      { Archive.design = r.Redundancy_opt.design;
        cost = r.Redundancy_opt.cost;
        slack = r.Redundancy_opt.slack;
        margin = r.Redundancy_opt.margin }
  in
  let best, explored, _ =
    search ?pool ?cache ?preflight ~config ~on_feasible
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
