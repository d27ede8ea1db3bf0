(** Tuning knobs of the design-optimization heuristics (Section 6).

    The paper reports runtimes of 3-60 minutes on a 2004-era Pentium 4;
    the defaults here are sized so that a full 150-application
    experiment cell finishes in seconds while preserving the search
    structure (tabu mapping moves on the critical path, greedy hardening
    escalation, greedy re-execution assignment). *)

type hardening_policy =
  | Optimize  (** the paper's OPT: trade hardening against re-execution. *)
  | Fixed_min  (** the MIN baseline: minimum hardening everywhere. *)
  | Fixed_max  (** the MAX baseline: maximum hardening everywhere. *)

type t = {
  tabu_tenure : int;
      (** iterations a re-mapped process stays tabu (Section 6.2). *)
  waiting_boost : int;
      (** iterations after which a never-moved process gets priority. *)
  max_stall : int;
      (** stop the tabu search after this many non-improving moves. *)
  max_iterations : int;  (** hard cap on tabu iterations. *)
  move_candidates : int;
      (** how many critical-path processes are considered for re-mapping
          at each tabu iteration. *)
  kmax : int;  (** per-node re-execution bound explored by the SFP search. *)
  slack : Ftes_sched.Scheduler.slack_mode;
  bus : Ftes_sched.Bus.policy;
      (** bus arbitration assumed by every schedulability test of the
          search ([Fcfs] by default, matching the paper's setup). *)
  hardening : hardening_policy;
  certify : bool;
      (** when set, {!Design_strategy.run} passes every emitted design
          through the {!Ftes_verify} static verifier and attaches the
          report to the solution. *)
}

val make :
  ?tabu_tenure:int ->
  ?waiting_boost:int ->
  ?max_stall:int ->
  ?max_iterations:int ->
  ?move_candidates:int ->
  ?kmax:int ->
  ?slack:Ftes_sched.Scheduler.slack_mode ->
  ?bus:Ftes_sched.Bus.policy ->
  ?hardening:hardening_policy ->
  ?certify:bool ->
  unit ->
  t
(** The supported constructor: every omitted knob takes the {!default}
    value, and bounds are validated ([Invalid_argument] on a negative
    tenure/stall/iteration budget, [move_candidates < 1] or a negative
    [kmax]).  Prefer [make] + the [with_*] builders below over record
    literals/updates — construction sites written this way survive new
    knobs unchanged (the record stays exposed as the representation,
    for pattern matching). *)

val default : t
(** [make ()]: [Optimize] policy, shared slack, FCFS bus, tenure 3,
    stall 10, kmax 12.  Memoization is not configured here: every
    search shares its SFP tables and candidate evaluations through a
    {!Redundancy_opt.cache}, bounded by the cache's own capacity. *)

(** {2 Builders}

    [with_field v t] is [t] with [field] replaced; composable by
    piping: [Config.(default |> with_slack Dedicated |> with_certify
    true)]. *)

val with_tabu_tenure : int -> t -> t

val with_waiting_boost : int -> t -> t

val with_max_stall : int -> t -> t

val with_max_iterations : int -> t -> t

val with_move_candidates : int -> t -> t

val with_kmax : int -> t -> t

val with_slack : Ftes_sched.Scheduler.slack_mode -> t -> t

val with_bus : Ftes_sched.Bus.policy -> t -> t

val with_hardening : hardening_policy -> t -> t

val with_certify : bool -> t -> t

val min_strategy : t
(** {!default} with [Fixed_min]. *)

val max_strategy : t
(** {!default} with [Fixed_max]. *)

val policy_name : hardening_policy -> string
(** ["OPT"], ["MIN"] or ["MAX"] — the labels used in the paper's
    Fig. 6. *)
