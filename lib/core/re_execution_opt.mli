(** ReExecutionOpt (Section 6.3): software redundancy assignment.

    Given an architecture with fixed hardening levels and a fixed
    mapping, find the number of re-executions [kj] per node so that the
    reliability goal of formula (6) is satisfied.  Starting from zero
    re-executions everywhere, the heuristic greedily adds one
    re-execution at a time on the node whose increment yields the
    largest increase of the system reliability, exactly as in the
    paper's example (N2's 1-10^-3 -> 1-5*10^-5 beats N1's
    1-10^-3 -> 1-10^-4). *)

val for_mapping :
  ?cache:Ftes_par.Sfp_cache.t ->
  ?kmax:int ->
  Ftes_model.Problem.t ->
  Ftes_model.Design.t ->
  int array option
(** [for_mapping problem design] ignores [design.reexecs] and returns
    the computed re-execution vector, or [None] when the goal cannot be
    reached with at most [kmax] (default {!Ftes_sfp.Sfp.default_kmax})
    re-executions per node at the design's hardening levels.  When
    [cache] is given, the per-node SFP tables are served from it
    (bit-identical to fresh computation).

    The ascent runs over cached exceedance tables
    ({!Ftes_sfp.Incremental}) with shared fold prefixes and elided
    exponentiations; the returned vector — and every
    float compared along the way — is bit-identical to an ascent that
    rebuilds formulae (5) and (6) from scratch for every candidate. *)

val optimize :
  ?cache:Ftes_par.Sfp_cache.t ->
  ?kmax:int ->
  Ftes_model.Problem.t ->
  Ftes_model.Design.t ->
  Ftes_model.Design.t option
(** Like {!for_mapping} but returns the design updated with the
    computed vector. *)
