(** The synthetic benchmark of Section 7.

    150 applications of 20 or 40 processes; WCETs of 1-20 ms on the
    fastest node without hardening; recovery overhead of 1-10% of the
    WCETs; five hardening levels; SER per cycle in
    {1e-10, 1e-11, 1e-12}; hardening performance degradation (HPD) in
    {5, 25, 50, 100}%; initial node costs of 1-6 units growing linearly
    with the hardening level; reliability goals with gamma between
    7.5e-6 and 2.5e-5 per hour.

    Deadlines are assigned {e independently of SER and HPD} (as the
    paper requires): each application's deadline is a random multiple of
    the no-fault schedule length of a greedy mapping on the full
    architecture at minimum hardening. *)

type params = {
  n_library : int;  (** node types available to the architecture search. *)
  levels : int;  (** h-versions per node. *)
  base_wcet_range : float * float;
  cost_range : float * float;
  speed_range : float * float;
  mu_fraction_range : float * float;
  gamma_range : float * float;
  deadline_factor_range : float * float;
  reduction_factor : float;
  clock_hz : float;
}

val default_params : params
(** The Section 7 values: 4 node types, 5 levels, WCET 1-20 ms, cost
    1-6, speed 1-1.75, mu 1-10%%, gamma 7.5e-6-2.5e-5, deadline factor
    calibrated once for the whole evaluation, reduction 100, 100 MHz. *)

(** One synthetic application, before the SER / HPD cell is chosen.
    Everything here — including the deadline — is cell-independent. *)
type app_spec = {
  index : int;
  n_processes : int;
  graph : Ftes_model.Task_graph.t;
  base_wcets_ms : float array;
  node_specs : Platform_gen.node_spec array;
  gamma : float;
  mu_ms : float;
  deadline_ms : float;
}

(** An experiment cell of Fig. 6: a fabrication technology (SER) and a
    hardening performance degradation. *)
type cell = { ser : float; hpd : float }

val generate_spec :
  ?params:params -> seed:int -> index:int -> n_processes:int -> unit -> app_spec
(** Deterministic in [(seed, index, n_processes)]. *)

val problem_of_spec :
  ?params:params -> cell -> app_spec -> Ftes_model.Problem.t
(** Expand a spec into the full problem tables for one cell. *)

val suite_slice :
  ?params:params -> count:int -> seed:int -> lo:int -> hi:int -> unit ->
  app_spec list
(** Applications [lo..hi-1] of the [count]-app suite, bit-identical to
    the corresponding slice of {!paper_suite} — each spec depends only
    on [(seed, index, count)], never on its neighbours, so a sharded
    campaign can generate exactly its own applications.  Raises
    [Invalid_argument] on a range outside [\[0, count\]]. *)

val paper_suite : ?params:params -> ?count:int -> seed:int -> unit -> app_spec list
(** The experiment population: [count] applications (default 150), the
    first half with 20 processes and the second half with 40.
    Equals [suite_slice ~lo:0 ~hi:count]. *)
