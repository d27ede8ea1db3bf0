(** Ablation experiments for the design choices called out in DESIGN.md.

    These are not paper artifacts; they quantify (1) what recovery-slack
    sharing buys over per-process slack and what the sound conservative
    bound costs (Section 6.4's design choice), (2) what the tabu mapping
    search adds over the greedy initial mapping (Section 6.2), and
    (3) how optimistic the paper's shared-slack schedule bound is under
    actually injected faults (measured with {!Ftes_faultsim}). *)

type slack_row = {
  mode : string;
  feasible_pct : float;  (** OPT feasibility over the population. *)
  mean_cost : float;  (** mean cost over the commonly-feasible apps. *)
}

val slack_ablation :
  ?pool:Ftes_par.Pool.t -> ?count:int -> seed:int -> unit -> slack_row list
(** OPT under Shared / Conservative / Dedicated slack on a synthetic
    population (default 40 apps) at SER 1e-11, HPD 25%.  [pool] runs
    the applications of each mode concurrently. *)

val render_slack : slack_row list -> string

type mapping_row = {
  variant : string;
  acceptance_at_20 : float;
  mean_cost : float;
}

val mapping_ablation :
  ?pool:Ftes_par.Pool.t -> ?count:int -> seed:int -> unit -> mapping_row list
(** OPT with the full tabu search vs. the greedy initial mapping only
    (tabu iterations set to zero), at SER 1e-11 and HPD 25%. *)

val render_mapping : mapping_row list -> string

type bound_row = {
  ser : float;
  mean_extra_k : float;
      (** average extra re-executions per node when k is chosen by the
          first-order bound instead of the exact SFP analysis. *)
  exact_mean_k : float;
  bound_mean_k : float;
  bound_unreachable_pct : float;
      (** nodes where the bound cannot certify the budget at all
          (S >= 1 or k beyond the cap) although the exact analysis can. *)
}

val bound_ablation : ?count:int -> seed:int -> unit -> bound_row list
(** Exact SFP analysis (Appendix A) vs the closed-form S^(k+1)/(1-S)
    bound, across the three fabrication technologies: how much software
    redundancy the simple bound over-provisions (default 30 apps;
    HPD 25%). *)

val render_bound : bound_row list -> string

type gap_row = {
  instances : int;
  both_feasible : int;
  heuristic_optimal : int;  (** instances where OPT matched the optimum. *)
  mean_gap_pct : float;
      (** mean (C_heuristic - C_optimal) / C_optimal over the
          both-feasible instances. *)
  max_gap_pct : float;
}

val optimality_gap :
  ?count:int -> ?n_processes:int -> seed:int -> unit -> gap_row
(** The paper's heuristics vs the proven optimum of the exact
    branch-and-bound {!Ftes_bnb.Bnb.solve} on small instances
    (defaults: 12 instances of 7 processes on a 2-node library); both
    costs are read from the optimality certificate. *)

val render_gap : gap_row -> string

type policy_row = {
  policy : string;
  schedulable_pct : float;
      (** how many of the OPT designs stay schedulable when their
          software-redundancy policy is replaced. *)
  mean_sl_ratio : float;
      (** mean schedule-length inflation relative to the paper's shared
          policy. *)
}

val retry_policy_comparison : ?count:int -> seed:int -> unit -> policy_row list
(** At SER 1e-11 and HPD 25%, on each OPT design (architecture, levels, mapping fixed), compare
    the paper's shared per-node budgets against (a) the same budgets
    with dedicated per-process slack and (b) individually optimized
    per-process retry budgets ({!Ftes_core.Retry_opt}). *)

val render_policy : policy_row list -> string

type checkpoint_row = {
  save_label : string;  (** checkpoint save cost, relative to mu. *)
  mean_sl_reduction_pct : float;
      (** worst-case schedule shortening vs plain re-execution. *)
  rescued : int;
      (** applications unschedulable under plain re-execution at minimum
          hardening that become schedulable with checkpointing. *)
  total : int;
}

val checkpoint_ablation : ?count:int -> seed:int -> unit -> checkpoint_row list
(** Plain re-execution vs checkpointed recovery ([15]'s technique) on
    minimum-hardening designs, across three checkpoint-save costs
    (mu/4, mu/2, mu). *)

val render_checkpoint : checkpoint_row list -> string

type exact_row = {
  app : string;
  shared_ms : float;  (** the paper's schedule bound. *)
  exact_ms : float;  (** exhaustive worst case over admissible scenarios. *)
  conservative_ms : float;  (** our sound bound. *)
  certified_optimistic : bool;
      (** some admissible fault scenario exceeds the shared bound. *)
}

val exact_worst_case :
  ?count:int -> ?n_processes:int -> seed:int -> unit -> exact_row list
(** Exhaustive scenario replay on OPT designs of small instances
    (defaults: 8 instances of 8 processes): how often and by how much the
    paper's shared-slack bound is optimistic, and that the conservative
    bound never is. *)

val render_exact : exact_row list -> string

type runtime_row = {
  n_procs : int;
  mean_opt_s : float;
  max_opt_s : float;
}

val runtime_study : ?per_size:int -> seed:int -> unit -> runtime_row list
(** OPT wall-clock vs application size (10/20/30/40 processes), the
    counterpart of the paper's "3 to 60 minutes on a Pentium 4". *)

val render_runtime : runtime_row list -> string

type optimism_row = {
  app : string;
  boost : float;
  predicted : float;  (** boosted per-iteration SFP, formula (5). *)
  observed : float;  (** Monte-Carlo budget-exceedance rate. *)
  surviving_deadline_miss_rate : float;
      (** fraction of within-budget runs that still missed the deadline:
          the optimism of the shared-slack bound. *)
}

val optimism :
  ?pool:Ftes_par.Pool.t ->
  ?count:int -> ?trials:int -> ?boost:float -> seed:int -> unit -> optimism_row list
(** Validate the SFP prediction and measure the shared-slack optimism on
    OPT solutions of a small population (defaults: 5 apps, 20_000
    trials, boost 2000).  Each application's fault-injection campaign
    draws from its own PRNG stream, split from the master seed in spec
    order before any parallelism, so the rows do not depend on the
    domain count. *)

val render_optimism : optimism_row list -> string
