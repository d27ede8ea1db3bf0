(** Machine-checkable optimality certificate of one exact
    branch-and-bound run ([Ftes_bnb]).

    The certificate freezes the incumbent the search converged to, the
    search counters, and one premise per pruned subtree — everything an
    offline checker needs to confirm, from the problem alone, that the
    un-enumerated part of the design space cannot contain a better
    design.  The [bnb/*] rules of [Ftes_verify] audit it: the incumbent
    is re-costed, re-scheduled and re-checked against the reliability
    goal; every prune premise is re-derived; and the premises together
    with the evaluated architectures must cover the whole architecture
    lattice exactly once (the coverage law).

    The payload is pure data: loading a certificate never recomputes
    anything.  It lives below [Ftes_verify] so the verifier can audit
    it without depending on the search engine. *)

type incumbent = {
  members : int array;
  levels : int array;
  reexecs : int array;
  mapping : int array;
  cost : float;  (** architecture cost of the design. *)
  schedule_length_ms : float;
}
(** The proven-optimal design, flattened (re-validated through
    [Design.make] when audited). *)

type arch_verdict =
  | Unreliable of int
      (** process with no admissible [(member, level)] pair. *)
  | Deadline of float  (** schedule-length lower bound, in ms. *)

type prune =
  | Cost_bound of {
      prefix : int array;
          (** chosen members (strictly increasing); [[||]] = the root. *)
      lower_bound : float;
          (** completion-cost lower bound over the subtree. *)
      incumbent_cost : float;
          (** prune reference at prune time (never below the final
              optimum). *)
    }
      (** the whole subtree below [prefix] (architectures extending it
          with higher-indexed nodes) costs more than the incumbent. *)
  | Arch_infeasible of {
      prefix : int array;
      subtree : bool;
          (** [true]: the verdict holds for the union of [prefix] and
              every still-addable node, hence for each architecture of
              the subtree; [false]: it holds for [prefix] as one exact
              architecture (its own mapping search was skipped). *)
      verdict : arch_verdict;
    }
  | Symmetry of {
      prefix : int array;
      skipped : int;  (** the extension node not branched on. *)
      canonical : int;
          (** smaller library node with bitwise-identical WCET / cost /
              failure-probability columns, absent from [prefix] — so
              every architecture of the skipped subtree has an
              equivalent canonical representative elsewhere. *)
    }

type counters = {
  expanded : int;  (** prefixes popped from the frontier and branched. *)
  closed : int;  (** complete architectures whose mapping space ran. *)
  evaluated : int;  (** (levels, mapping) candidates fully evaluated. *)
  pruned_cost : int;  (** [Cost_bound] subtree prunes. *)
  pruned_arch : int;  (** [Arch_infeasible] prunes (both scopes). *)
  pruned_symmetry : int;  (** [Symmetry] edge skips. *)
  pruned_levels : int;
      (** hardening vectors cut inside closed architectures (by the
          architecture-cost test or a reliability-dead level choice). *)
  pruned_mappings : int;
      (** mapping candidates cut inside closed architectures (by the
          per-slot load lower bound or a reliability-dead digit),
          counted in skipped candidates. *)
}

type t = {
  summary : Preflight.summary;  (** the analyzed problem's shape. *)
  kmax : int;  (** re-execution cap the search ran under. *)
  search_space : float;
      (** total (architecture, levels, mapping) candidates. *)
  represented_subsets : float;
      (** architectures the closed ones stand for once symmetric
          images are counted back in
          ({!Ftes_util.Symmetric.binomial} per identity class). *)
  heuristic_cost : float;
      (** the greedy walk's cost (the seed incumbent); [infinity] when
          the heuristic found nothing. *)
  optimal_cost : float;
      (** the proven optimum; [infinity] = proven infeasible. *)
  incumbent : incumbent option;  (** present iff [optimal_cost] finite. *)
  counters : counters;
  prunes : prune list;  (** in the order the prunes fired. *)
}

val of_run :
  problem:Ftes_model.Problem.t ->
  kmax:int ->
  search_space:float ->
  represented_subsets:float ->
  heuristic_cost:float ->
  incumbent:incumbent option ->
  counters:counters ->
  prunes:prune list ->
  t
(** Freeze a finished run ([optimal_cost] is derived from
    [incumbent]). *)

val gap : t -> float option
(** Relative optimality gap of the heuristic,
    [(heuristic - optimal) / optimal] — [None] when either side is
    unbounded (no heuristic solution / proven infeasible), [Some 0.]
    when the heuristic was optimal. *)
