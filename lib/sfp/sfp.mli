(** System Failure Probability analysis (Appendix A).

    Connects the hardware redundancy (hardening levels, which determine
    the process failure probabilities [pijh]) with the software
    redundancy (the maximum number [kj] of re-executions on node [Nj]).

    For one node with process failure probabilities [p = p_1 .. p_n]:

    - formula (1): [Pr(0)] = prod (1 - p_i), rounded down;
    - formulae (2)-(3): [Pr(f)] = [Pr(0)] * h_f(p) where h_f sums the
      products of every multiset of [f] faults over the [n] processes
      (complete homogeneous symmetric polynomial);
    - formula (4): [Pr(f > k)] = 1 - Pr(0) - sum_{f=1..k} Pr(f),
      rounded up.

    Formula (5) combines the per-node exceedance probabilities and
    formula (6) checks the per-hour reliability goal.  All rounding is
    directed so the analysis is pessimistic (never reports a system as
    more reliable than it is). *)

type node_analysis = {
  probs : float array;  (** the node's process failure probabilities. *)
  kmax : int;
  pr0 : float;  (** formula (1), rounded down. *)
  homogeneous : float array;  (** h_0 .. h_kmax of [probs]. *)
}
(** Cached per-node analysis: the probability vector and its h_f table
    up to a re-execution bound, so that exploring different [k] values
    is O(1) per query.  The representation is exposed so that the
    static verifier can re-check memoized tables field by field (and so
    that its mutation tests can corrupt them); construct values only
    through {!node_analysis}. *)

val default_kmax : int
(** Default cap on explored re-executions per node (12; the paper's
    examples never exceed 7). *)

val node_analysis : ?kmax:int -> float array -> node_analysis
(** [node_analysis p] precomputes the analysis for a node whose mapped
    processes fail with probabilities [p].  Raises [Invalid_argument] if
    some entry is not a probability in [\[0, 1)]. *)

val kmax : node_analysis -> int

val pr_zero : node_analysis -> float
(** Formula (1), rounded down.  [1.] for a node with no processes. *)

val pr_faults : node_analysis -> f:int -> float
(** Formula (3): probability of recovering from exactly [f] faults.
    Raises [Invalid_argument] if [f < 0] or [f > kmax]. *)

val pr_exceeds : node_analysis -> k:int -> float
(** Formula (4): probability that more than [k] faults occur (node
    failure with [k] re-executions), rounded up and clamped to
    [\[0, 1\]]. *)

val pr_exceeds_enumerated : float array -> k:int -> float
(** Reference implementation of formula (4) by explicit enumeration of
    the fault-scenario multisets of formula (2).  Exponential in [k];
    exists to cross-check {!pr_exceeds} in the test-suite. *)

val system_failure_per_iteration : node_analysis array -> k:int array -> float
(** Formula (5): probability that at least one node exceeds its
    re-execution budget during one application iteration, rounded up. *)

val reliability :
  per_iteration_failure:float -> iterations_per_hour:float -> float
(** Formula (6) left-hand side: [(1 - pr)^ceil(iterations)]. *)

(** Verdict of the analysis for a complete design. *)
type verdict = {
  per_iteration_failure : float;
  reliability_per_hour : float;
  goal : float;  (** rho = 1 - gamma. *)
  meets_goal : bool;
}

val max_admissible_failure : Ftes_model.Application.t -> float
(** The largest per-iteration failure probability that still meets
    formula (6): [1 - rho^(1/ceil(iterations per hour))].  A design
    meets the reliability goal iff its per-iteration failure does not
    exceed this threshold. *)

val log10_margin :
  Ftes_model.Application.t -> per_iteration_failure:float -> float
(** Reliability margin in -log10 space:
    [log10 (max_admissible_failure / per_iteration_failure)] — how many
    decades the design's per-iteration failure sits {e below} the
    admissible maximum.  Non-negative exactly when the goal is met,
    clamped to [±300] decades (and to the cap for a zero failure
    probability).  This is the third archive objective of
    {!Ftes_pareto}. *)

val analysis_kmax : Ftes_model.Design.t -> member:int -> int
(** The table bound {!evaluate} uses for one member:
    [max default_kmax reexecs.(member)]. *)

val analyses_for :
  Ftes_model.Problem.t -> Ftes_model.Design.t -> node_analysis array
(** The per-member analyses {!evaluate} is defined over, one per
    architecture slot at {!analysis_kmax}. *)

val evaluate_analyses :
  Ftes_model.Problem.t ->
  Ftes_model.Design.t ->
  analyses:node_analysis array ->
  verdict
(** {!evaluate} over externally supplied (typically memoized) member
    analyses.  The caller promises [analyses] equals
    {!analyses_for}[ problem design]; {!Ftes_par.Sfp_cache} guarantees
    this by construction.  Raises [Invalid_argument] on a slot-count
    mismatch. *)

val evaluate : Ftes_model.Problem.t -> Ftes_model.Design.t -> verdict
(** Full-system check of formula (6) for a design (architecture,
    levels, mapping, and re-execution counts). *)

val meets_goal : Ftes_model.Problem.t -> Ftes_model.Design.t -> bool
(** [meets_goal p d] = [(evaluate p d).meets_goal]. *)
