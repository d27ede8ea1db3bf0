(** Discrete-event execution of a root schedule under injected faults.

    One run simulates one iteration of the application: processes
    execute in their static per-node order, every failed execution is
    re-executed after the recovery overhead [mu] while the node's shared
    budget of [kj] re-executions lasts, and inter-node messages keep
    their static bus order but shift to the producers' actual
    (fault-delayed) finish times — the behaviour of the contingency
    branches of a conditional schedule.

    The simulator is the empirical counterpart of the SFP analysis: over
    many runs the fraction of budget-exceeded iterations converges to
    formula (5).  It also quantifies the optimism of the paper's
    shared-slack schedule bound: under the {!Ftes_sched.Scheduler.Shared}
    model a cross-node fault cascade can finish after [SL] (never under
    [Conservative] schedules), and often past the deadline.  Measured
    in 2026-10 with the exact replay ({!Scenarios.worst_case}): fig1's
    cost-52 OPT design has a worst case of 540 ms against D = 360 ms,
    and 18 of 26 replayable §7 OPT designs exceed D at SER 1e-11,
    HPD 25%.  The deadline-miss counter measures exactly this. *)

type outcome = {
  makespan : float;
      (** completion time of the last process (meaningful also for
          failed runs: time until the budget was exhausted). *)
  failed_node : int option;
      (** [Some slot] when that node ran out of re-executions while a
          process still had not executed correctly. *)
  faults_injected : int;  (** total failed executions across all nodes. *)
}

val run_iteration :
  ?boost:float ->
  ?bus:Ftes_sched.Bus.policy ->
  Ftes_util.Prng.t ->
  Ftes_model.Problem.t ->
  Ftes_model.Design.t ->
  Ftes_sched.Schedule.t ->
  outcome
(** Simulate one iteration.  [boost] scales every process failure
    probability (importance sampling for the rare-event regime; default
    1).  Raises [Invalid_argument] if boosting pushes a probability to
    1 or beyond. *)

val run_scenario :
  ?bus:Ftes_sched.Bus.policy ->
  Ftes_model.Problem.t ->
  Ftes_model.Design.t ->
  Ftes_sched.Schedule.t ->
  faults:int array ->
  outcome
(** Deterministic replay of one fault scenario: process [p] fails
    exactly [faults.(p)] times (then succeeds), budgets permitting.
    This is the building block of the exact worst-case analysis in
    {!Scenarios}.  Raises [Invalid_argument] on a fault vector of the
    wrong length or with negative entries. *)

type campaign = {
  trials : int;
  system_failures : int;
  deadline_misses : int;
      (** runs that survived within the re-execution budgets but still
          finished after the deadline: the optimism of the shared-slack
          bound (0 under the conservative policy). *)
  observed_failure_rate : float;
  predicted_failure_rate : float;
      (** formula (5) evaluated on the (boosted) probabilities. *)
  max_makespan : float;
}

val run_campaign :
  ?boost:float ->
  ?slack:Ftes_sched.Scheduler.slack_mode ->
  ?bus:Ftes_sched.Bus.policy ->
  Ftes_util.Prng.t ->
  Ftes_model.Problem.t ->
  Ftes_model.Design.t ->
  trials:int ->
  campaign
(** Monte-Carlo validation campaign for a design (its schedule is built
    internally; default slack policy [Shared]). *)
