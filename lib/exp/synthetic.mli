(** Synthetic-benchmark experiment cells (Section 7).

    A {e cell} is one point of the paper's evaluation grid: a
    fabrication technology (SER), a hardening performance degradation
    (HPD) and a design strategy (MIN / MAX / OPT).  Running a cell
    applies the strategy to every application of the population and
    records the optimized architecture cost (or infeasibility).  The
    acceptance percentage of Fig. 6 is then a pure function of the cell
    run and the maximum architecture cost [ArC] — so one run serves
    every ArC row, and cells shared between figures are computed once
    and memoized in a {!suite}. *)

type cell_key = {
  ser : float;
  hpd : float;
  policy : Ftes_core.Config.hardening_policy;
}

type cell_run = {
  key : cell_key;
  costs : float option array;
      (** per application: best architecture cost, or [None] when the
          strategy found no schedulable & reliable solution. *)
  points : (int * Ftes_pareto.Archive.point) list;
      (** one frontier point (cost / slack / margin plus the design) per
          feasible application, tagged with the application's absolute
          suite index — the raw material for campaign frontier merges.
          Like [costs], a pure per-application function: the list for a
          population slice is exactly the corresponding sub-list of the
          full population's. *)
  elapsed_s : float;
}

val problems :
  ?params:Ftes_gen.Workload.params ->
  cell_key ->
  Ftes_gen.Workload.app_spec list ->
  (int * Ftes_model.Problem.t) list
(** Each application's index and its problem in the cell's SER/HPD
    instance. *)

val run_cell :
  ?pool:Ftes_par.Pool.t ->
  problems:(int * Ftes_model.Problem.t) list ->
  cell_key ->
  cell_run
(** Run one cell over a fixed application population, given as
    {!problems}, under {!Ftes_core.Config.default} with the cell's
    hardening policy.  With a multi-domain
    [pool] the (independent) applications are optimized concurrently;
    the per-application results and their order are bit-identical to a
    sequential run.  [elapsed_s] is CPU time, summed over domains. *)

val acceptance : cell_run -> max_cost:float -> float
(** Percentage (0-100) of applications accepted at the given maximum
    architectural cost. *)

val feasibility : cell_run -> float
(** Percentage of applications with any feasible solution (ArC = inf). *)

(** Memoizing driver for a whole evaluation. *)
type suite

val create_suite :
  ?pool:Ftes_par.Pool.t ->
  ?count:int ->
  seed:int ->
  unit ->
  suite
(** Generates the application population once (default 150 apps, half
    with 20 and half with 40 processes).  [pool] is used by every
    {!cell} computation. *)

val suite_specs : suite -> Ftes_gen.Workload.app_spec list

val cell : suite -> cell_key -> cell_run
(** Memoized {!run_cell} on the suite's population. *)

val policies : Ftes_core.Config.hardening_policy list
(** [MAX; MIN; OPT] — the order used by the paper's charts. *)
