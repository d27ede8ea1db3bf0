(** RedundancyOpt (Section 6.3): hardening / re-execution trade-off.

    For a fixed architecture and mapping, decide the hardening level of
    every node together with the re-execution counts returned by
    {!Re_execution_opt}:

    + start from the minimum hardening levels;
    + {e escalation}: while the application is unschedulable (or the
      reliability goal is unreachable), greedily raise by one the
      hardening level whose increase shortens the worst-case schedule
      the most;
    + {e reduction}: once schedulable, repeatedly try lowering each
      node by one level; among the still-schedulable alternatives keep
      the cheapest, and stop when no reduction is schedulable.

    Under the [Fixed_min] / [Fixed_max] baseline policies the level
    search is skipped and only the re-execution assignment and the
    schedulability test are performed. *)

type result = {
  design : Ftes_model.Design.t;  (** levels and reexecs filled in. *)
  schedule_length : float;
  cost : float;
  slack : float;
      (** deadline minus [schedule_length] — worst-case slack in ms,
          negative when the candidate misses the deadline.  Computed
          under the config's slack and bus policies, so callers (the
          ablations, the frontier recorder) need not re-schedule. *)
  margin : float;
      (** {!Ftes_sfp.Sfp.log10_margin} of the candidate's per-iteration
          failure at the config's [kmax]: decades of reliability
          headroom below the admissible maximum, non-negative exactly
          when the reliability goal is met. *)
}

type cache
(** Memoization shared by one optimization run, four
    {!Ftes_par.Memo} tables: the SFP node-table cache; a table of whole
    candidate evaluations keyed on [(members, levels, mapping)] — a
    pure key because {!probe} overwrites levels and reexecs and the
    config is fixed per run; a table of whole {!probe} outcomes keyed
    on [(policy, members, mapping)] — these two counting under the
    [evals.*] family; and a table of whole architecture steps of the
    Fig. 5 walk ({!walk}) keyed on [(policy, max_iterations, members)],
    counting under [walks.*].  Domain-safe; caching never changes any
    result.

    One cache may also be shared by several runs over the same problem
    whose configs differ only in the hardening policy and the tabu
    iteration cap (probe and walk outcomes carry the policy in their
    key, walk outcomes the cap too; candidate evaluations depend on
    neither). *)

val create_cache : ?capacity:int -> unit -> cache
(** Fresh cache.  [capacity], when given, bounds each of the four
    tables; by default the SFP layer keeps up to [1 lsl 18] node tables
    and the evaluation, probe and walk tables up to 200_000 outcomes
    each.  [~capacity:0] retains nothing, so every call recomputes —
    the unmemoized reference the determinism tests compare against.
    Each insert skipped at capacity bumps the process-wide
    [sfp_cache.capacity_drops], [evals.capacity_drops] or
    [walks.capacity_drops] counter (checked by the [obs/cache-capacity]
    verifier rule), so a saturated cache is observable instead of
    silently degrading into recomputation.  Raises [Invalid_argument]
    on a negative capacity. *)

val sfp_cache : cache -> Ftes_par.Sfp_cache.t
(** The SFP node-table layer of [cache], for hit-rate reporting and for
    attaching tables to verifier subjects. *)

val walk :
  cache:cache ->
  config:Config.t ->
  members:int array ->
  (unit -> (result * result list) option) ->
  (result * result list) option
(** [walk ~cache ~config ~members compute] is [compute ()], memoized
    per [(config.hardening, config.max_iterations, members)]: the
    outcome of one architecture step of the Fig. 5 walk — [None] when
    the architecture is unschedulable, else the step's result and its
    feasible candidates in [on_feasible] order.  [compute] must be that
    pure step over [members] under [config] on the cache's problem;
    {!Design_strategy} is its one caller.  A hit skips both tabu
    passes, so the [tabu.*] counters count only steps actually run. *)

val stored_walks : cache -> int
(** Walk outcomes currently held. *)

val walk_capacity : cache -> int
(** The bound on stored walk outcomes. *)

type migration = {
  mig_sfp_kept : int;
  mig_sfp_dropped : int;
  mig_evals_kept : int;
  mig_evals_dropped : int;
  mig_probes_kept : int;
  mig_probes_dropped : int;
}
(** What {!migrate_cache} kept versus invalidated, per table. *)

val migrate_cache :
  base:Ftes_model.Problem.t ->
  footprint:Ftes_whatif.Delta.footprint ->
  cache ->
  cache * migration
(** [migrate_cache ~base ~footprint cache] builds a fresh cache for the
    perturbed problem the footprint's delta produces when applied to
    [base] (the problem [cache] was populated for; [cache] itself is
    left untouched).  Kept entries are exactly those whose keys the
    footprint proves untouched — every table cell they read is clean and
    every member survives the library remap — so each one is bit-equal
    to what a cold run on the perturbed problem would compute, and
    warm-starting from the migrated cache cannot change any result.
    Eval results under a deadline-only delta survive with their [slack]
    rewritten to the same [deadline -. schedule_length] expression a
    fresh evaluation uses.  The walk table comes back empty, with the
    source's capacity, under every footprint. *)

type eval_stats = { hits : int; misses : int; fresh : int }
(** [hits] / [misses] count candidate-evaluation and probe cache
    lookups; [fresh] counts evaluations actually computed (re-execution
    optimization plus one schedule) — the ratio of [fresh] counts
    between two runs is a hardware-independent measure of the work a
    cache saves. *)

val eval_stats : unit -> eval_stats
(** Process-wide counters, aggregated over every {!cache} instance. *)

val reset_eval_stats : unit -> unit
(** Zero the whole [evals.*] family (lookups, hits, misses, capacity
    drops) and [evals.fresh]. *)

val probe :
  cache:cache ->
  config:Config.t ->
  Ftes_model.Problem.t ->
  Ftes_model.Design.t ->
  result option * float
(** [probe ~config problem design] uses [design]'s members and mapping;
    its levels and reexecs fields are ignored (replaced by the search).
    The pair is the hardening outcome and the best-effort length, both
    computed in a single escalation pass:

    - the result is [None] when no hardening vector allowed by the
      policy makes the application both schedulable and reliable;
    - the length is the shortest worst-case schedule length reachable
      by the policy for this mapping, even if it misses the deadline
      ([infinity] when the reliability goal is unreachable at every
      hardening vector).

    The tabu mapping search ranks unschedulable mappings by the length
    and tracks schedulable ones through the result.  Outcomes are
    memoized per [(policy, members, mapping)] in [cache]. *)
