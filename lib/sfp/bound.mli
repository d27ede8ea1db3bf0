(** Closed-form bounds on the node failure probability.

    The exact analysis of {!Sfp} evaluates formula (4) through the
    complete homogeneous symmetric polynomials of the process failure
    probabilities.  This module provides the classical first-order
    alternative

    {v Pr(f > k; Njh)  <=  S^(k+1) / (1 - S),     S = sum of pijh v}

    obtained from [h_f <= S^f] and the geometric tail bound.  It is what
    a designer would use on the back of an envelope; the ablation
    experiment quantifies how many extra re-executions (and how much
    schedule slack) the bound costs compared to the exact analysis. *)

val sum_check : float array -> float
(** [sum_check p] is S = sum of the entries; the bounds below require
    [S < 1]. *)

val pr_exceeds_upper : float array -> k:int -> float
(** Upper bound on formula (4).  Returns [1.] when [S >= 1] (the bound
    degenerates).  Raises [Invalid_argument] on negative [k] or on
    entries outside [\[0, 1)]. *)

val required_k : float array -> budget:float -> kmax:int -> int option
(** [required_k p ~budget ~kmax] is the smallest [k <= kmax] whose
    {!pr_exceeds_upper} does not exceed [budget], if any, by a linear
    scan from [k = 0]. *)

val is_sound : float array -> k:int -> bool
(** [is_sound p ~k] checks the defining inequality against the exact
    analysis; the [sfp/bound-sound] verifier rule runs it on every
    member of the design it checks. *)

(** {2 Exact-analysis admissibility}

    The closed-form bound above over-approximates the exceedance, so it
    can only prove a re-execution count {e sufficient} — never that an
    assignment is dead.  Exclusion arguments (the pre-flight analyzer of
    {!Ftes_analyze}, the exact search's pruners) therefore run on the exact
    grain-rounded analysis of {!Sfp} instead, through the two entries
    below. *)

val admissible_budget : kmax:int -> Ftes_model.Application.t -> float
(** {!Sfp.max_admissible_failure} widened by the analysis slop: the
    pessimistic grain rounding can inflate a computed exceedance by up
    to one grain per rounded term (at most [2 * (kmax + 2)] of them),
    and the reliability check itself contributes a few ulps through its
    [pow]/product chain.  Any node of a design that meets the
    reliability goal with [k <= kmax] re-executions has a computed
    exceedance within this budget — so an assignment whose exceedance
    exceeds it is provably dead, and the least [k] within it
    lower-bounds any feasible re-execution count. *)

val required_k_exact : float array -> budget:float -> kmax:int -> int option
(** [required_k_exact p ~budget ~kmax] is the smallest [k <= kmax]
    whose {e exact} exceedance {!Sfp.pr_exceeds} does not exceed
    [budget], if any ([None] means even [kmax] re-executions leave the
    node above the budget).  The rounded exceedance is exactly
    non-increasing in [k] (the recovery partial sums only grow and the
    directed rounding is monotone), so the answer is bisected. *)
