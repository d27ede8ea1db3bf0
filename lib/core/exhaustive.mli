(** Exact reference search, for measuring the heuristics' optimality gap.

    Enumerates {e every} candidate design of small instances: all
    architectures (non-empty subsets of the node library), all hardening
    vectors, and all mappings of the processes onto the selected nodes.
    Re-execution counts follow the same policy as the heuristics (the
    greedy SFP assignment of {!Re_execution_opt}), so the comparison
    isolates the architecture / hardening / mapping decisions that the
    paper's heuristics approximate.

    The search is exponential (sum over subsets of levels^n * n^procs);
    callers must stay within the candidate [limit].  The ablation
    harness uses 6-8 process instances on 2-node libraries. *)

val search_space : Ftes_model.Problem.t -> float
(** Approximate number of (architecture, levels, mapping) candidates. *)

(** {2 Enumeration building blocks}

    The exact branch-and-bound ({!Ftes_bnb}) reuses these so its
    candidate space — and the order ties are broken in — is the same
    as the reference enumeration's, by construction. *)

val subsets : int -> int array list
(** All non-empty subsets of [0 .. lib-1], each as a strictly
    increasing array, in the enumeration order of {!run}. *)

val iter_levels :
  Ftes_model.Problem.t -> int array -> (int array -> unit) -> unit
(** Odometer over the hardening-level vectors (1-based, bounded by
    each member's available h-versions) of one architecture.  The
    callback receives the same mutable array every time. *)

val iter_mappings : n:int -> m:int -> (int array -> unit) -> unit
(** Odometer over every function [0..n) -> [0..m).  The callback
    receives the same mutable array every time. *)

val better :
  best:Redundancy_opt.result option -> float * float -> bool
(** [better ~best (cost, sl)] — the incumbent comparison of {!run}:
    strictly cheaper (beyond the 1e-9 crumb budget) wins, a cost tie
    breaks towards a strictly shorter schedule. *)

val run :
  ?pool:Ftes_par.Pool.t ->
  ?limit:int ->
  config:Config.t ->
  Ftes_model.Problem.t ->
  Redundancy_opt.result option
(** The cost-minimal feasible design, or [None] when no candidate is
    both schedulable and reliable.  Ties on cost are broken towards the
    shorter schedule.  Raises [Invalid_argument] when {!search_space}
    exceeds [limit] (default 2_000_000).

    With a multi-domain [pool] the architecture subsets are searched
    concurrently and their winners merged in subset order; the SFP node
    tables are shared across candidates.  Either way the enumeration order inside a subset and
    the tie-breaking across subsets match the sequential search. *)
