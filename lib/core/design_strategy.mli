(** DesignStrategy (Fig. 5): architecture selection loop.

    Explores architectures from one node upwards, fastest first.  For
    each candidate architecture whose minimum-hardening cost can still
    beat the best-so-far cost, the mapping is optimized for schedule
    length; if the application fits its deadline, the mapping is then
    re-optimized for architecture cost and the solution is recorded.
    Whenever an architecture is unschedulable, the search moves directly
    to architectures with one more node, as in the paper's pseudocode.

    The same driver implements the paper's baselines: with
    [config.hardening = Fixed_min] it is the MIN strategy (software
    fault tolerance only) and with [Fixed_max] the MAX strategy. *)

type solution = {
  result : Redundancy_opt.result;
  verdict : Ftes_sfp.Sfp.verdict;
  schedule : Ftes_sched.Schedule.t;
  explored : int;  (** number of architectures evaluated. *)
  sfp_tables : Ftes_sfp.Sfp.node_analysis array;
      (** the per-member SFP tables [verdict] was computed from — what
          a certifier passes to the verifier so the SFP-cache contract
          rule can check them against fresh recomputation. *)
}

val architectures_by_speed : Ftes_model.Problem.t -> n:int -> int array list
(** All size-[n] subsets of the node library, ordered fastest first
    (ascending sum of the nodes' mean minimum-hardening WCETs) —
    [SelectArch] / [SelectNextArch] of Fig. 5. *)

type step = {
  step_members : int array;  (** the evaluated architecture. *)
  step_verdict : [ `Schedulable of float | `Unschedulable ];
      (** accept (with the winning cost) or reject. *)
}
(** One entry of a recorded walk.  Steps correspond 1:1 with the
    [explored] counter's increments, so a trail is bit-identical across
    cache capacities. *)

type recorded = {
  rec_problem : Ftes_model.Problem.t;
  rec_config : Config.t;
  rec_cache : Redundancy_opt.cache;
      (** the populated per-run (or supplied) cache — the warm-start
          capital. *)
  rec_trail : step list;  (** evaluated architectures, in walk order. *)
  rec_solution : solution option;
  rec_explored : int;
}
(** Everything {!rerun} needs to answer a perturbed query warm. *)

val run_recorded :
  ?cache:Redundancy_opt.cache ->
  config:Config.t ->
  Ftes_model.Problem.t ->
  recorded
(** The full strategy, returning the walk's {!recorded} state (trail,
    populated cache, solution) for later {!rerun} calls.
    [rec_solution] is the cheapest solution that meets both the
    deadline and the reliability goal, or [None] when no explored
    architecture admits one.

    Each size level is walked fastest first.  An architecture whose
    minimum-hardening cost cannot beat the best so far is pruned
    ([strategy.pruned]); any other is explored ([strategy.explored]),
    recorded in the trail, and the first unschedulable one takes the
    size jump of Fig. 5 line 15.  SFP node tables and whole candidate
    evaluations are shared across the walk through a per-run
    {!Redundancy_opt.cache}, which never changes any result: a run
    over a [~capacity:0] cache, which retains nothing, returns the same
    solution, trail and walk counters.

    [cache] overrides the per-run cache, letting several runs over the
    {e same problem} share evaluations — e.g. a MIN / MAX / OPT
    hardening-policy sweep, for which candidate evaluations coincide
    (probe outcomes are segregated by policy inside the cache).  The
    configs of all sharing runs must agree except in
    {!Config.t.hardening} and {!Config.t.max_iterations}.  A repeated
    run over a supplied cache answers every architecture it walked
    before from {!Redundancy_opt.walk} without a tabu search; the
    pruning, the trail, the counters and the finalization run as on a
    cold cache. *)

val run :
  ?cache:Redundancy_opt.cache ->
  config:Config.t ->
  Ftes_model.Problem.t ->
  solution option
(** [(run_recorded ...).rec_solution]. *)

val rerun :
  from:recorded ->
  Ftes_whatif.Delta.t ->
  (recorded * Ftes_whatif.Reuse.t, string) result
(** Warm re-optimization: apply the delta to the recorded problem
    (checked — [Error] on an inapplicable delta), migrate the recorded
    cache keeping exactly the entries the delta's invalidation
    footprint proves untouched ({!Redundancy_opt.migrate_cache}), and
    re-walk the space warm.

    Because every surviving cache entry is bit-equal to what a cold run
    on the perturbed problem would compute, and caching and recording
    never change any result, the returned solution, schedule,
    trail and [explored] count are {e bit-identical} to a cold
    {!run_recorded} on the perturbed problem under the same config —
    the qcheck property [test_whatif.ml] enforces per delta class
    across every slack × bus policy.  The returned {!recorded} is
    rebased on the perturbed problem, so deltas chain.  The
    {!Ftes_whatif.Reuse.t} reports what was kept; it is observational
    only. *)

type frontier = {
  archive : Ftes_pareto.Archive.t;
      (** every deadline- and ρ-feasible candidate the walk surfaced,
          ε-filtered over (cost, slack, margin). *)
  best : solution option;
      (** the exact {!run} solution — same cost, hardening vector,
          k-vector, mapping and schedule ([None] iff {!run} returns
          [None]). *)
  explored : int;  (** number of architectures evaluated. *)
}

val run_frontier :
  ?cache:Redundancy_opt.cache ->
  ?spec:Ftes_pareto.Archive.spec ->
  config:Config.t ->
  Ftes_model.Problem.t ->
  frontier
(** {!run}, additionally recording every feasible candidate the walk
    evaluates (the schedule-length winner and the cost-refined mapping
    of each schedulable architecture) into a fresh archive over [spec]
    (default {!Ftes_pareto.Archive.default_spec}).

    The walk itself records exactly the same best solution as {!run}:
    the [best] field is that solution, finalized identically. *)

val accepted : ?max_cost:float -> solution option -> bool
(** The acceptance criterion of the experimental evaluation: a solution
    exists and its architecture cost does not exceed the bound (default:
    no bound). *)
