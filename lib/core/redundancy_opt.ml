module Design = Ftes_model.Design
module Problem = Ftes_model.Problem
module Scheduler = Ftes_sched.Scheduler
module Sfp = Ftes_sfp.Sfp

type result = {
  design : Design.t;
  schedule_length : float;
  cost : float;
  slack : float;
  margin : float;
}

(* A candidate evaluation is a pure function of (members, levels,
   mapping): [evaluate] overwrites the levels and the reexecs, and the
   config is fixed for one optimization run.  The tabu mapping search
   and the hardening escalation/reduction revisit the same triples many
   times, so whole results are memoized alongside the SFP node
   tables. *)
type eval_key = { members : int array; levels : int array; mapping : int array }

(* [probe] ignores the input levels on top of that (the level search
   overwrites them), so whole probe outcomes are additionally
   memoized on just (policy, members, mapping) — the tabu search
   re-probes the same mapping whenever a move is revisited, and the
   architecture-cost refinement pass re-probes every mapping the
   schedule-length pass already solved.  The hardening policy is part of
   the key (unlike [evaluate], a probe's outcome depends on it), which
   lets one cache serve the MIN / MAX / OPT cells of a policy sweep. *)
type probe_key = {
  pr_policy : Config.hardening_policy;
  pr_members : int array;
  pr_mapping : int array;
}

(* The generic polymorphic hash samples only a prefix of the structure;
   cache keys share their [members] / [levels] prefixes across thousands
   of entries, which would collapse the tables into linear chains.  Hash
   every element (FNV-style) instead. *)
let hash_ints h arr =
  Array.fold_left (fun h x -> (h * 0x01000193) lxor (x + 1)) h arr

let policy_tag = function
  | Config.Fixed_min -> 1
  | Config.Fixed_max -> 2
  | Config.Optimize -> 3

module Eval_memo = Ftes_par.Memo.Make (struct
  type t = eval_key

  let equal a b =
    a.mapping = b.mapping && a.levels = b.levels && a.members = b.members

  let hash k = hash_ints (hash_ints (hash_ints 0x811c9dc5 k.members) k.levels) k.mapping
end)

module Probe_memo = Ftes_par.Memo.Make (struct
  type t = probe_key

  let equal a b =
    a.pr_policy = b.pr_policy
    && a.pr_mapping = b.pr_mapping
    && a.pr_members = b.pr_members

  let hash k =
    hash_ints
      (hash_ints (0x811c9dc5 + policy_tag k.pr_policy) k.pr_members)
      k.pr_mapping
end)

(* One step of the Fig. 5 walk — the schedule-length tabu search over
   an architecture and the cost refinement that follows it — reads
   nothing but the members, the hardening policy and the tabu iteration
   cap on top of what is fixed per cache (problem, kmax, slack, bus), so
   whole step outcomes are memoized too: a warm daemon then answers a
   repeated optimize or pareto request without re-running a single tabu
   iteration.  The daemon's buckets leave [max_iterations] out of their
   key, so it is in this one. *)
type walk_key = {
  wk_policy : Config.hardening_policy;
  wk_max_iterations : int;
  wk_members : int array;
}

module Walk_memo = Ftes_par.Memo.Make (struct
  type t = walk_key

  let equal a b =
    a.wk_policy = b.wk_policy
    && a.wk_max_iterations = b.wk_max_iterations
    && a.wk_members = b.wk_members

  let hash k =
    hash_ints
      (((0x811c9dc5 + policy_tag k.wk_policy) * 0x01000193)
      lxor k.wk_max_iterations)
      k.wk_members
end)

type cache = {
  sfp : Ftes_par.Sfp_cache.t;
  evals : result option Eval_memo.t;
  probes : (result option * float) Probe_memo.t;
  walks : (result * result list) option Walk_memo.t;
}

(* Cache statistics live on the Ftes_obs registry: one source of truth
   for the daemon's telemetry (via [eval_stats]), metrics snapshots and the
   `obs/cache-consistency` verifier rule.  The [evals.*] family counts
   both the whole-evaluation and the probe memo tables. *)
let evals_family = Ftes_par.Memo.family "evals"

let walks_family = Ftes_par.Memo.family "walks"

let create_cache ?capacity () =
  let bound = Option.value capacity ~default:200_000 in
  { sfp = Ftes_par.Sfp_cache.create ?capacity ();
    evals = Eval_memo.create ~capacity:bound evals_family;
    probes = Probe_memo.create ~capacity:bound evals_family;
    walks = Walk_memo.create ~capacity:bound walks_family }

let sfp_cache cache = cache.sfp

let stored_walks cache = Walk_memo.length cache.walks

let walk_capacity cache = Walk_memo.capacity cache.walks

let walk ~cache ~config ~members compute =
  let key =
    { wk_policy = config.Config.hardening;
      wk_max_iterations = config.Config.max_iterations;
      wk_members = members }
  in
  match Walk_memo.find cache.walks key with
  | Some outcome -> outcome
  | None ->
      let outcome = compute () in
      Walk_memo.add cache.walks
        { key with wk_members = Array.copy members }
        outcome

(* --- warm-start cache migration -------------------------------------

   [migrate_cache] carries a populated cache across a single-field
   perturbation of its problem: every entry the delta's invalidation
   footprint calls clean is provably the same value a cold run on the
   perturbed problem would compute (the entry's table cells are
   untouched bits, and caching never changes any result), so keeping it
   preserves bit-identity while skipping the recomputation.  Entries
   whose keys mention a removed library node drop; surviving keys (and
   the member arrays inside stored designs) are renumbered through the
   footprint's [node_map]. *)

type migration = {
  mig_sfp_kept : int;
  mig_sfp_dropped : int;
  mig_evals_kept : int;
  mig_evals_dropped : int;
  mig_probes_kept : int;
  mig_probes_dropped : int;
}

let migrate_cache ~base ~(footprint : Ftes_whatif.Delta.footprint) cache =
  let fp = footprint in
  let slot_clean node level =
    (not (fp.Ftes_whatif.Delta.tables_dirty ~node ~level))
    && not (fp.Ftes_whatif.Delta.pfail_dirty ~node ~level)
  in
  (* Probe outcomes range over every level of their members (the
     escalation climbs the whole ladder), so a member is probe-clean
     only when all its levels are. *)
  let node_clean node =
    let levels = Problem.levels base node in
    let rec go level = level > levels || (slot_clean node level && go (level + 1)) in
    go 1
  in
  (* Most deltas leave the library numbering alone; when they do, every
     surviving key is its own remap, so all three memos can reuse the
     source bucket layout (copy + in-place filter) instead of rehashing
     thousands of array keys — migration is the floor of a warm rerun. *)
  let identity_map =
    let lib = Problem.n_library base in
    let rec go j =
      j >= lib || (fp.Ftes_whatif.Delta.node_map j = Some j && go (j + 1))
    in
    go 0
  in
  (* Renumber a member array; [None] when a member is gone, the input
     array itself when the map is the identity on it (preserving
     physical sharing between key and stored design). *)
  let remap_members arr =
    let n = Array.length arr in
    let out = Array.make n 0 in
    let rec go i changed =
      if i = n then Some (if changed then out else arr)
      else
        match fp.Ftes_whatif.Delta.node_map arr.(i) with
        | None -> None
        | Some j ->
            out.(i) <- j;
            go (i + 1) (changed || j <> arr.(i))
    in
    if identity_map then Some arr else go 0 false
  in
  let keep_sfp (k : Ftes_par.Sfp_cache.key) =
    if fp.Ftes_whatif.Delta.pfail_dirty ~node:k.Ftes_par.Sfp_cache.node
         ~level:k.Ftes_par.Sfp_cache.level
    then None
    else
      Option.map
        (fun node -> { k with Ftes_par.Sfp_cache.node })
        (fp.Ftes_whatif.Delta.node_map k.Ftes_par.Sfp_cache.node)
  in
  let sfp, (sfp_kept, sfp_dropped) =
    Ftes_par.Sfp_cache.migrate ~same_keys:identity_map ~keep:keep_sfp cache.sfp
  in
  let remap_design members (r : result) =
    if identity_map || members == r.design.Design.members then r
    else { r with design = { r.design with Design.members = members } }
  in
  let all_clean clean members =
    let n = Array.length members in
    let rec go i = i = n || (clean i members.(i) && go (i + 1)) in
    go 0
  in
  let fix_result (r : result) =
    match fp.Ftes_whatif.Delta.eval_policy with
    | `Remap_slack d ->
        (* Bit-identical to a fresh evaluation: [evaluate_fresh]
           computes slack as exactly [deadline -. schedule_length], and
           the schedule never reads the deadline. *)
        { r with slack = d -. r.schedule_length }
    | `Keep | `Drop -> r
  in
  let drop_evals =
    match fp.Ftes_whatif.Delta.eval_policy with
    | `Drop -> true
    | `Keep | `Remap_slack _ -> false
  in
  let keep_eval (key : eval_key) result =
    let clean i node = slot_clean node key.levels.(i) in
    if drop_evals || not (all_clean clean key.members)
    then None
    else
      Option.map
        (fun members ->
          ( (if members == key.members then key else { key with members }),
            Option.map (fun r -> remap_design members (fix_result r)) result ))
        (remap_members key.members)
  in
  let keep_probe (key : probe_key) (result, best_len) =
    let clean _ node = node_clean node in
    if (not fp.Ftes_whatif.Delta.keep_probes)
       || not (all_clean clean key.pr_members)
    then None
    else
      Option.map
        (fun pr_members ->
          ( (if pr_members == key.pr_members then key
             else { key with pr_members }),
            (Option.map (remap_design pr_members) result, best_len) ))
        (remap_members key.pr_members)
  in
  let evals, (evals_kept, evals_dropped) =
    Eval_memo.migrate ~same_keys:identity_map ~keep:keep_eval cache.evals
  in
  let probes, (probes_kept, probes_dropped) =
    Probe_memo.migrate ~same_keys:identity_map ~keep:keep_probe cache.probes
  in
  (* Walk outcomes go whatever the footprint: keeping the ones whose
     members are probe-clean made no measurable difference to a warm
     rerun, which fresh evaluations dominate. *)
  let walks =
    Walk_memo.create ~capacity:(Walk_memo.capacity cache.walks) walks_family
  in
  ( { sfp; evals; probes; walks },
    { mig_sfp_kept = sfp_kept;
      mig_sfp_dropped = sfp_dropped;
      mig_evals_kept = evals_kept;
      mig_evals_dropped = evals_dropped;
      mig_probes_kept = probes_kept;
      mig_probes_dropped = probes_dropped } )

let c_eval_fresh = Ftes_obs.Metrics.counter "evals.fresh"

type eval_stats = { hits : int; misses : int; fresh : int }

let eval_stats () =
  { hits = Ftes_obs.Metrics.counter_value evals_family.Ftes_par.Memo.hits;
    misses = Ftes_obs.Metrics.counter_value evals_family.Ftes_par.Memo.misses;
    fresh = Ftes_obs.Metrics.counter_value c_eval_fresh }

let reset_eval_stats () =
  Ftes_par.Memo.reset evals_family;
  Ftes_obs.Metrics.reset_counter c_eval_fresh

let deadline problem =
  problem.Problem.app.Ftes_model.Application.deadline_ms

let evaluate_fresh sfp config problem design levels =
  Ftes_obs.Metrics.incr c_eval_fresh;
  Ftes_obs.Span.with_ ~name:"opt/evaluate" (fun () ->
      let d = Design.with_levels design levels in
      match
        Re_execution_opt.optimize ~cache:sfp ~kmax:config.Config.kmax problem d
      with
      | None -> None
      | Some d ->
          let schedule_length =
            Scheduler.schedule_length ~slack:config.Config.slack
              ~bus:config.Config.bus problem d
          in
          (* The optimizer proper only compares lengths and costs; slack
             and margin ride along so frontier recording (and callers
             such as the ablations) need not re-derive them.  The SFP
             tables are the ones [Re_execution_opt] just built, shared
             via [sfp]. *)
          let kmax = config.Config.kmax in
          let analyses =
            Array.init (Design.n_members d) (fun member ->
                Ftes_par.Sfp_cache.node_analysis sfp problem d ~member ~kmax)
          in
          let per_iteration_failure =
            Sfp.system_failure_per_iteration analyses ~k:d.Design.reexecs
          in
          Some
            { design = d;
              schedule_length;
              cost = Design.cost problem d;
              slack = deadline problem -. schedule_length;
              margin =
                Sfp.log10_margin problem.Problem.app ~per_iteration_failure })

let evaluate cache config problem design levels =
  (* Lookups borrow the live arrays; only an insert snapshots them (the
     caller may mutate its levels array after we return). *)
  let key =
    { members = design.Design.members; levels; mapping = design.Design.mapping }
  in
  match Eval_memo.find cache.evals key with
  | Some result -> result
  | None ->
      (* Compute outside the lock; a duplicated concurrent evaluation of
         the same pure key is harmless. *)
      let result = evaluate_fresh cache.sfp config problem design levels in
      Eval_memo.add cache.evals
        { members = Array.copy design.Design.members;
          levels = Array.copy levels;
          mapping = Array.copy design.Design.mapping }
        result

let min_levels design = Array.map (fun _ -> 1) design.Design.members

let max_levels problem design =
  Array.map (fun j -> Problem.levels problem j) design.Design.members

(* Escalation: raise one level at a time, always the increment that
   shortens the schedule the most, until schedulable or saturated.
   Returns the first schedulable result (if any) and the best schedule
   length seen anywhere along the way. *)
let escalate cache config problem design =
  Ftes_obs.Span.with_ ~name:"opt/escalate" @@ fun () ->
  let d = deadline problem in
  let rec climb levels best_len =
    let here = evaluate cache config problem design levels in
    let best_len =
      match here with
      | Some r -> Float.min best_len r.schedule_length
      | None -> best_len
    in
    match here with
    | Some r when Ftes_util.Tolerance.leq r.schedule_length d -> (Some r, best_len)
    | Some _ | None ->
        let members = Array.length levels in
        let best = ref None in
        for j = 0 to members - 1 do
          if levels.(j) < Problem.levels problem design.Design.members.(j)
          then begin
            let candidate = Array.copy levels in
            candidate.(j) <- candidate.(j) + 1;
            let len =
              match evaluate cache config problem design candidate with
              | Some r -> r.schedule_length
              | None -> infinity
            in
            match !best with
            | Some (_, bl) when bl <= len -> ()
            | Some _ | None -> best := Some (candidate, len)
          end
        done;
        (match !best with
        | None -> (None, best_len) (* every node already fully hardened *)
        | Some (candidate, _) -> climb candidate best_len)
  in
  climb (min_levels design) infinity

(* Reduction: keep taking the cheapest schedulable single-level
   decrease. *)
let reduce cache config problem design (current : result) =
  Ftes_obs.Span.with_ ~name:"opt/reduce" @@ fun () ->
  let d = deadline problem in
  let rec descend (current : result) =
    let levels = current.design.Design.levels in
    let members = Array.length levels in
    let best = ref None in
    for j = 0 to members - 1 do
      if levels.(j) > 1 then begin
        let candidate = Array.copy levels in
        candidate.(j) <- candidate.(j) - 1;
        match evaluate cache config problem design candidate with
        | Some r when Ftes_util.Tolerance.leq r.schedule_length d -> (
            match !best with
            | Some (br : result) when br.cost <= r.cost -> ()
            | Some _ | None -> best := Some r)
        | Some _ | None -> ()
      end
    done;
    match !best with
    | Some r when r.cost < current.cost -> descend r
    | Some _ | None -> current
  in
  descend current

let probe_fixed cache config problem design levels =
  match evaluate cache config problem design levels with
  | Some r ->
      let ok = Ftes_util.Tolerance.leq r.schedule_length (deadline problem) in
      ((if ok then Some r else None), r.schedule_length)
  | None -> (None, infinity)

let probe_fresh cache ~config problem design =
  match config.Config.hardening with
  | Config.Fixed_min ->
      probe_fixed cache config problem design (min_levels design)
  | Config.Fixed_max ->
      probe_fixed cache config problem design (max_levels problem design)
  | Config.Optimize -> (
      match escalate cache config problem design with
      | Some r, best_len ->
          (Some (reduce cache config problem design r), best_len)
      | None, best_len -> (None, best_len))

let probe ~cache ~config problem design =
  let key =
    { pr_policy = config.Config.hardening;
      pr_members = design.Design.members;
      pr_mapping = design.Design.mapping }
  in
  match Probe_memo.find cache.probes key with
  | Some outcome -> outcome
  | None ->
      let outcome = probe_fresh cache ~config problem design in
      Probe_memo.add cache.probes
        { key with
          pr_members = Array.copy design.Design.members;
          pr_mapping = Array.copy design.Design.mapping }
        outcome
