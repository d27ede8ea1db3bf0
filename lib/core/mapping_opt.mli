(** MappingAlgorithm (Section 6.2): tabu-search process mapping.

    Explores re-mappings of the processes on the current critical path.
    A re-mapped process becomes tabu for a few iterations; processes
    that have waited long are considered first; a move is taken when it
    (1) beats the best-so-far solution (aspiration, tabu ignored) or
    (2) is the best of the currently allowed moves, even if worse than
    the best-so-far (diversification).  The search stops after a number
    of non-improving iterations.

    Each evaluated mapping is completed into a full solution by
    {!Redundancy_opt} (hardening levels + re-executions), exactly as in
    the paper where every mapping move triggers the redundancy
    optimization.

    The two cost functions of the paper are provided: minimize the
    worst-case schedule length (to decide schedulability of an
    architecture) and minimize the architecture cost among schedulable
    mappings. *)

type objective = Schedule_length | Architecture_cost

val initial_mapping : Ftes_model.Problem.t -> members:int array -> int array
(** Greedy earliest-finish-time mapping at minimum hardening, used as
    the tabu starting point. *)

val run :
  cache:Redundancy_opt.cache ->
  ?pool:Ftes_par.Pool.t ->
  ?preflight:Ftes_analyze.Preflight.t ->
  config:Config.t ->
  objective:objective ->
  ?initial:int array ->
  Ftes_model.Problem.t ->
  members:int array ->
  Redundancy_opt.result option
(** [run ~config ~objective problem ~members] searches mappings of all
    processes onto the architecture [members] (library indices).
    Returns the best complete solution found, or [None] when no visited
    mapping admits a schedulable, reliable redundancy assignment.

    With [Architecture_cost], the returned solution is the cheapest
    schedulable one; with [Schedule_length] it is the schedulable
    solution of minimum worst-case schedule length.

    [cache] memoizes candidate evaluations across tabu iterations;
    [pool] scores the moves of one iteration concurrently.  Both leave
    the returned solution bit-identical to a sequential search over an
    empty [~capacity:0] cache: moves are evaluated on private copies of the mapping and
    merged back in move order.  [preflight] forwards to every
    {!Redundancy_opt.probe}, skipping hardening vectors the report
    proves futile — likewise without changing any result. *)
