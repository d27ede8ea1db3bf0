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
  certificate : Ftes_verify.Report.t option;
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

(* The Fig. 5 walk, parameterized over a feasible-candidate hook.  The
   hook fires once per feasible result surfaced by an evaluated
   architecture (the schedule-length winner first, then the cost-refined
   mapping when one exists), always from the deterministic bookkeeping
   path: the sequential walk calls it in evaluation order, and the
   parallel walk only during the ordered batch merge — never from a
   speculative worker — so the hook sees the exact same sequence whatever
   the domain count.  [on_step] fires from the same path, once per
   evaluated architecture. *)
let search ?pool ?cache ?preflight ~config ~on_feasible
    ?(on_step = fun _ -> ()) problem =
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
  (* Pure candidate score: no counter update, so the parallel walk can
     evaluate speculatively and replay the bookkeeping during the
     ordered merge. *)
  let evaluate_architecture members =
    (* Pre-flight short-circuit: when the report proves every mapping
       onto this architecture unreliable or over-deadline, the whole
       tabu search would only ever see futile probes — [`Unschedulable]
       without running it, so the Fig. 5 line-15 size jump fires
       identically. *)
    let provably_dead =
      match preflight with
      | None -> false
      | Some pf -> (
          match Ftes_analyze.Preflight.architecture_check pf ~members with
          | `Feasible -> false
          | `Unreliable _ | `Deadline _ ->
              Ftes_obs.Metrics.incr c_pruned_architectures;
              true)
    in
    if provably_dead then `Unschedulable
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
          | Some r when r.Redundancy_opt.cost <= sl_result.Redundancy_opt.cost
            ->
              (r, [ sl_result; r ])
          | Some r -> (sl_result, [ sl_result; r ])
          | None -> (sl_result, [ sl_result ])
        in
        `Schedulable (result, candidates)
  in
  let record (result, candidates) =
    List.iter on_feasible candidates;
    if result.Redundancy_opt.cost < !best_cost then begin
      best_cost := result.Redundancy_opt.cost;
      best := Some result
    end
  in
  (* One size level, sequentially: fastest-first until the queue is
     exhausted or an evaluated architecture is unschedulable (Fig. 5,
     line 15: jump to the next size). *)
  let rec size_level_seq = function
    | [] -> ()
    | members :: rest ->
        if min_hardening_cost problem members >= !best_cost then begin
          Ftes_obs.Metrics.incr c_pruned;
          size_level_seq rest (* line 6: cannot beat the best-so-far *)
        end
        else begin
          incr explored;
          Ftes_obs.Metrics.incr c_explored;
          match evaluate_architecture members with
          | `Unschedulable ->
              on_step { step_members = members; step_verdict = `Unschedulable }
          | `Schedulable ((result, _) as outcome) ->
              on_step
                { step_members = members;
                  step_verdict = `Schedulable result.Redundancy_opt.cost };
              record outcome;
              size_level_seq rest
        end
  in
  (* Same level on a pool: score a batch of candidates speculatively in
     parallel, then merge in speed order replaying exactly the
     sequential prune / record / jump decisions.  Pre-pruning against
     the best cost at batch entry is sound because the best cost only
     decreases: a candidate pruned now would be pruned by the sequential
     walk too, and one kept now is re-checked during the merge.
     Batching bounds the speculative work evaluated beyond the
     sequential walk's stopping point to one batch. *)
  let size_level_par pool queue =
    let batch_size = 2 * Ftes_par.Pool.domains pool in
    (* Merge one scored batch; returns false when the walk must stop
       (an evaluated architecture was unschedulable: Fig. 5 line 15). *)
    let rec merge candidates results =
      match (candidates, results) with
      | [], [] -> true
      | members :: candidates, result :: results ->
          if min_hardening_cost problem members >= !best_cost then begin
            Ftes_obs.Metrics.incr c_pruned;
            merge candidates results
          end
          else begin
            incr explored;
            Ftes_obs.Metrics.incr c_explored;
            match result with
            | `Unschedulable ->
                on_step
                  { step_members = members; step_verdict = `Unschedulable };
                false
            | `Schedulable ((result, _) as outcome) ->
                on_step
                  { step_members = members;
                    step_verdict = `Schedulable result.Redundancy_opt.cost };
                record outcome;
                merge candidates results
          end
      | _ -> assert false
    in
    let rec batches queue =
      match queue with
      | [] -> ()
      | _ ->
          let rec take n = function
            | rest when n = 0 -> ([], rest)
            | [] -> ([], [])
            | x :: rest ->
                let taken, rest = take (n - 1) rest in
                (x :: taken, rest)
          in
          let batch, rest = take batch_size queue in
          let candidates =
            List.filter
              (fun members -> min_hardening_cost problem members < !best_cost)
              batch
          in
          let results =
            Ftes_par.Pool.map ~pool evaluate_architecture candidates
          in
          if merge candidates results then batches rest
    in
    batches queue
  in
  let size_level =
    match pool with
    | Some pool
      when Ftes_par.Pool.domains pool > 1 && not (Ftes_par.Pool.in_worker ())
      ->
        size_level_par pool
    | Some _ | None -> size_level_seq
  in
  for n = 1 to lib do
    size_level (architectures_by_speed problem ~n)
  done;
  (!best, !explored, cache)

let finalize ~config ~cache ~explored problem (result : Redundancy_opt.result)
    =
  Ftes_obs.Span.with_ ~name:"strategy/finalize" @@ fun () ->
  let design = result.Redundancy_opt.design in
  let schedule =
    Scheduler.schedule ~slack:config.Config.slack ~bus:config.Config.bus
      problem design
  in
  let analyses =
    let sfp = Redundancy_opt.sfp_cache cache in
    Array.init (Design.n_members design) (fun member ->
        Ftes_par.Sfp_cache.node_analysis sfp problem design ~member
          ~kmax:(Sfp.analysis_kmax design ~member))
  in
  let certificate =
    if config.Config.certify then
      Some
        (Ftes_verify.Verify.certify ~slack:config.Config.slack
           ~bus:config.Config.bus ~sfp_tables:analyses problem design schedule)
    else None
  in
  { result;
    verdict = Sfp.evaluate_analyses problem design ~analyses;
    schedule;
    explored;
    certificate }

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
  Ftes_obs.Metrics.incr c_runs;
  Ftes_obs.Span.with_ ~name:"strategy/run" @@ fun () ->
  let steps = ref [] in
  let on_step step = steps := step :: !steps in
  let best, explored, cache =
    search ?pool ?cache ?preflight ~config ~on_feasible:(fun _ -> ()) ~on_step
      problem
  in
  { rec_problem = problem;
    rec_config = config;
    rec_cache = cache;
    rec_preflight = preflight;
    rec_trail = List.rev !steps;
    rec_solution = Option.map (finalize ~config ~cache ~explored problem) best;
    rec_explored = explored }

let run ?pool ?cache ?preflight ?record ~config problem =
  match record with
  | Some cell ->
      let recorded = run_recorded ?pool ?cache ?preflight ~config problem in
      cell := Some recorded;
      recorded.rec_solution
  | None ->
      Ftes_obs.Metrics.incr c_runs;
      Ftes_obs.Span.with_ ~name:"strategy/run" @@ fun () ->
      let best, explored, cache =
        search ?pool ?cache ?preflight ~config ~on_feasible:(fun _ -> ())
          problem
      in
      Option.map (finalize ~config ~cache ~explored problem) best

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
  Ftes_obs.Metrics.incr c_runs;
  Ftes_obs.Span.with_ ~name:"strategy/run" @@ fun () ->
  let archive = Archive.create ?spec () in
  let on_feasible (r : Redundancy_opt.result) =
    Archive.insert archive
      { Archive.design = r.Redundancy_opt.design;
        cost = r.Redundancy_opt.cost;
        slack = r.Redundancy_opt.slack;
        margin = r.Redundancy_opt.margin }
  in
  let best, explored, cache =
    search ?pool ?cache ?preflight ~config ~on_feasible problem
  in
  { archive;
    best = Option.map (finalize ~config ~cache ~explored problem) best;
    explored }

let accepted ?max_cost = function
  | None -> false
  | Some solution -> (
      match max_cost with
      | None -> true
      | Some bound ->
          Ftes_util.Tolerance.leq ~eps:Ftes_util.Tolerance.cost_eps
            solution.result.Redundancy_opt.cost bound)
