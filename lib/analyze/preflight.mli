(** Pre-flight static analysis of a problem instance.

    Derives, in milliseconds and without running any optimizer, a set
    of {e necessary} conditions every feasible design must satisfy:

    - per-task schedulability: the fastest WCET of each process over
      the whole library must fit the deadline, and — under the
      re-execution slack policies — so must the shortest
      [t + k * (t + mu)] over its reliability-admissible assignments;
    - aggregate schedulability: the critical path under per-process
      minimum WCETs, and the total minimum work against the capacity
      of the full library;
    - reliability: for every process some [(node, level)] pair must
      reach the goal within [kmax] re-executions
      ({!Ftes_sfp.Bound.required_k_exact} at the pessimistic
      {!Ftes_sfp.Bound.admissible_budget}, which never excludes a
      workable assignment);
    - a cost lower bound: the cheapest deadline- and
      reliability-admissible h-version of the most demanding process.

    Every violated condition carries a concrete {!witness}.  The same
    tables double as sound pruning oracles for the exact search
    ({!architecture_check}, {!completion_cost_lower_bound},
    {!canonical_nodes}): each test is one-sided, so consuming the report
    skips only architectures the search would have rejected anyway.
    The heuristic Fig. 5 walk ({!Ftes_core.Design_strategy}) takes no
    report.

    A report is emitted as a machine-checkable {!Certificate} and
    re-derived offline by the [analyze/*] rules of [Ftes_verify]. *)

type witness =
  | Task_wcet of { proc : int; min_wcet_ms : float }
      (** even the fastest h-version of [proc] overruns the deadline. *)
  | Task_slack of { proc : int; min_length_ms : float }
      (** every reliability-admissible assignment of [proc] needs [t]
          (plus [k * (t + mu)] recovery slack under a re-execution
          policy) beyond the deadline. *)
  | Task_unreliable of { proc : int }
      (** no [(node, level)] pair reaches the reliability goal for
          [proc] within [kmax] re-executions. *)
  | Critical_path of { length_ms : float; path : int list }
      (** the task-graph critical path under per-process minimum WCETs
          (and zero transmission, the single-node optimum) exceeds the
          deadline. *)
  | Total_work of { work_ms : float; capacity_ms : float }
      (** the summed minimum WCETs exceed what the full library can
          execute within the deadline. *)

type t = {
  problem : Ftes_model.Problem.t;
  kmax : int;
  reexec : bool;
      (** whether the slack policy re-runs whole processes
          ([Shared] / [Conservative] / [Dedicated]), enabling the
          [t + k * (t + mu)] task bounds. *)
  deadline_ms : float;
  mu_ms : float;
  threshold : float;  (** {!Ftes_sfp.Sfp.max_admissible_failure}. *)
  budget : float;  (** {!Ftes_sfp.Bound.admissible_budget} at [kmax]. *)
  min_wcets : float array;
      (** per process: fastest WCET over every [(node, level)]. *)
  kneed : int array array array;
      (** [kneed.(proc).(node).(level - 1)]: least re-execution count
          within the budget for the singleton assignment, [-1] when
          even [kmax] is not enough.  A sound lower bound on the
          re-executions of any feasible node hosting the process. *)
  task_min_length : float array;
      (** per process: min over admissible [(node, level)] of
          [t + kneed * (t + mu)] under a re-execution policy ([t]
          alone otherwise); [infinity] when nothing is admissible. *)
  task_cheapest : float array;
      (** per process: cheapest [Cjh] among assignments that are
          reliability-admissible and fit the deadline; [infinity] when
          none is. *)
  critical_path_ms : float;
  critical_path : int list;
  total_work_ms : float;
  capacity_ms : float;  (** [n_library * deadline]. *)
  cost_lower_bound : float;
      (** max over processes of {!t.task_cheapest} — deadline-aware,
        hence at least {!t.sfp_cost_lower_bound}; [infinity] when the
        problem is proven infeasible through a task witness. *)
  sfp_cost_lower_bound : float;
      (** {!Ftes_sfp.Bound.cost_lower_bound}: the reliability-only
          bound, recorded for the certificate. *)
  witnesses : witness list;  (** empty iff no condition is violated. *)
}

val prove_eps_ms : float
(** Absolute margin (1e-6 ms) subtracted from every derived length
    bound before comparing against the deadline: the bound and the
    scheduler accumulate the same WCETs in different orders, so a few
    float crumbs must never turn a tight instance into a false
    infeasibility proof. *)

val run :
  ?kmax:int -> ?slack:Ftes_sched.Scheduler.slack_mode ->
  Ftes_model.Problem.t -> t
(** Analyze a problem under the config's [kmax] (default
    {!Ftes_sfp.Sfp.default_kmax}) and slack policy (default [Shared]).
    Emits the [analyze/preflight] span and bumps
    [analyze.bounds_derived] / [analyze.infeasible]. *)

val run_with : ?kmax:int -> reexec:bool -> Ftes_model.Problem.t -> t
(** Policy-bucket entry used by the offline audit: {!run} forwards
    here with [reexec] set for the whole-process re-execution slack
    modes. *)

val reexec_of_slack : Ftes_sched.Scheduler.slack_mode -> bool
(** The policy bucket {!run} analyzes a slack mode under: [true] for
    the whole-process re-execution policies ([Shared] / [Conservative]
    / [Dedicated]).  The [bnb/*] audit re-derives a report under the
    subject's slack mode through this. *)

val feasible : t -> bool
(** [witnesses = []] — no necessary condition is violated.  (The
    problem may still be infeasible; the analysis is one-sided.) *)

val witness_to_string : Ftes_model.Problem.t -> witness -> string

(** {2 Pruning oracles}

    Sound one-sided tests the exact search ({!Ftes_bnb}) consults while
    it enumerates architectures; every "dead" answer means the full
    evaluation provably fails. *)

val architecture_check :
  t -> members:int array -> [ `Feasible | `Unreliable of int | `Deadline of float ]
(** Necessary conditions specialized to one architecture (library
    subset): [`Unreliable p] when process [p] has no admissible
    [(member, level)] pair, [`Deadline lb] when a schedule-length
    lower bound (critical path and total work over member-minimal
    WCETs, plus the per-task re-execution bound under a re-execution
    policy) provably exceeds the deadline.  Either verdict implies the
    mapping/hardening search over this architecture cannot produce a
    schedulable and reliable design. *)

val canonical_nodes : Ftes_model.Problem.t -> int array
(** [canonical_nodes problem] maps every library node to the smallest
    node with exactly the same tables — same number of h-versions and,
    per version, equal cost, WCET column and failure-probability column
    (float equality; interchangeable nodes therefore yield bit-identical
    schedules and SFP verdicts).  [canonical.(j) = j] when [j] is the
    first of its identity class.  The exact search ({!Ftes_bnb}) keeps
    only architectures whose chosen members form a prefix of each class;
    the [bnb/*] audit re-derives the classes through this function. *)

val completion_cost_lower_bound :
  t -> prefix:int array -> first_open:int -> float
(** Lower bound on the architecture cost of any reliability-feasible
    design whose members include all of [prefix] plus, optionally, nodes
    [>= first_open]: each chosen member costs at least its cheapest
    h-version, and a process that no member of [prefix] can host within
    the re-execution budget ({!t.kneed}) forces one more node admissible
    for it from the open suffix.  [infinity] when some process is
    admissible nowhere in [prefix] or the suffix — no completion can
    meet the reliability goal.  Raises [Invalid_argument] unless
    [prefix] is strictly increasing with entries below [first_open]
    and [0 <= first_open <= n_library]. *)
