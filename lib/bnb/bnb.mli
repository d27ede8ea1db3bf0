(** Exact branch-and-bound over the joint hardening / re-execution /
    mapping space, with a machine-checkable optimality certificate.

    Where exhaustive enumeration visits every candidate — and is
    therefore capped at a few million candidates — this search proves
    the same optimum while visiting only a fraction of the space.  It
    walks the architecture lattice as a prefix tree (members in
    increasing library order), best-first by a completion-cost lower
    bound, and discharges whole subtrees through three sound pruners:

    - {e cost}: {!Ftes_analyze.Preflight.completion_cost_lower_bound}
      of the subtree exceeds the incumbent's cost;
    - {e infeasibility}:
      {!Ftes_analyze.Preflight.architecture_check} rejects the union of
      the prefix and every still-addable node (necessary conditions are
      monotone in the member set, so the verdict covers the subtree);
    - {e symmetry}: extending by a node that has a bitwise-identical,
      unchosen, smaller twin ({!Ftes_analyze.Preflight.canonical_nodes})
      only produces architectures equivalent to canonical ones searched
      elsewhere.

    Inside each surviving architecture the hardening vectors are cut by
    the incumbent's cost and by reliability-dead level choices, and the
    mapping space is searched one process digit at a time — in
    lexicographic order — with dead digits (inadmissible singleton
    assignments) and per-slot load lower bounds pruned before
    completion.  Every prune is one-sided, so the optimum (cost, then
    schedule length, ties broken towards the earlier architecture in
    canonical subset order) is the one a full enumeration returns
    whenever the latter terminates; the differential suite checks this
    against an independent reference enumeration.

    Each prune is recorded as a premise in a
    {!Ftes_analyze.Bnb_certificate}, audited offline by the [bnb/*]
    verifier rules: premises are re-derived from the problem
    and, together with the closed architectures, must tile the whole
    architecture lattice exactly once. *)

exception Budget_exhausted of int
(** Raised by {!solve} when more than [limit] candidates would need a
    full evaluation; carries the count reached. *)

val search_space : Ftes_model.Problem.t -> float
(** The number of (architecture, hardening levels, mapping) candidates
    — sum over non-empty subsets of levels^members * members^processes
    — that the certificate reports against. *)

type outcome = {
  best : Ftes_core.Redundancy_opt.result option;
      (** the proven-optimal design; [None] = proven infeasible. *)
  certificate : Ftes_analyze.Bnb_certificate.t;
      (** the optimality certificate; auditing it is the caller's
          business (the verifier's [bnb/*] rules). *)
}

val solve :
  ?limit:int ->
  config:Ftes_core.Config.t ->
  Ftes_model.Problem.t ->
  outcome
(** Prove the cost-minimal feasible design under the config's policies
    and [kmax], or prove that none exists.

    The greedy {!Ftes_core.Design_strategy.run} seeds the incumbent
    cost, so the gap between the two is part of every certificate.  The
    incumbent tightens as architectures close (best-first order makes
    that fast), and the winners are merged in canonical subset order.

    [limit] (default unlimited) caps the fully evaluated candidates;
    past it {!Budget_exhausted} is raised.  No candidate-space limit
    applies — pruning, not enumeration, is the point. *)
