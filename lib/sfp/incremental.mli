(** Incremental evaluation of the SFP formulae over cached exceedance
    tables.

    The greedy re-execution ascent of {!Ftes_core.Re_execution_opt}
    evaluates formula (5) for every single-increment neighbour of the
    current re-execution vector at every step.  Recomputing formula (4)
    from scratch inside that loop costs O(members * kmax) rounded
    operations per candidate; this module precomputes, once per node
    table, the vector [Pr(f > k)] for every [k <= kmax] — in the exact
    operation order of {!Sfp.pr_exceeds}, so each entry is bit-identical
    — and re-evaluates a candidate with one fold over cached floats.

    It also reuses fold prefixes: formula (5) folds the per-node
    survival terms left to right, so a candidate that bumps member [j]
    shares the fold prefix [0 .. j-1] with the base vector
    ({!prefix_into} / {!candidate_failure}).

    Everything here is a pure function of the {!Sfp.node_analysis}
    inputs; {!Ftes_par.Sfp_cache} memoizes {!exceed_vector} alongside
    the node tables, one per (node, h-version, mapping) key. *)

val exceed_vector : Sfp.node_analysis -> float array
(** [exceed_vector a] has [Sfp.pr_exceeds a ~k] at index [k] for every
    [k <= Sfp.kmax a], bit-identical to calling {!Sfp.pr_exceeds}. *)

type t
(** Evaluation state for one member-analysis array. *)

val make : float array array -> t
(** [make exceed] evaluates over the members' {!exceed_vector}s, in
    member order. *)

val system_failure : t -> k:int array -> float
(** Formula (5); bit-identical to
    {!Sfp.system_failure_per_iteration} on the analyses the vectors
    were built from. *)

val prefix_into : t -> k:int array -> float array -> unit
(** Fill [prefix] (length [>= members + 1]) with the left-fold
    prefixes of the formula (5) survival product for the vector [k]:
    [prefix.(j)] is the product over members [0 .. j-1]. *)

val candidate_failure : t -> k:int array -> prefix:float array -> j:int -> float
(** Formula (5) for [k] with [k.(j) + 1] substituted at [j], reusing
    the shared fold prefix; requires [k.(j) < kmax of member j] and
    [prefix] filled by {!prefix_into} for [k].  Bit-identical to
    {!system_failure} on the bumped vector. *)
