(** A hard real-time application (Section 2 / Section 4 inputs).

    Bundles the task graph with its timing and reliability parameters:
    the global deadline [D], the period [T] (one iteration of the
    application; the worked example of Appendix A.2 uses T = D), the
    reliability goal expressed as [gamma] (the maximum acceptable
    probability of a system failure within the time unit tau, one
    hour), and the recovery overhead [mu] charged before every
    re-execution. *)

type t = private {
  name : string;
  graph : Task_graph.t;
  process_names : string array;
  deadline_ms : float;
  period_ms : float;
  gamma : float; (* reliability goal is rho = 1 - gamma per hour *)
  recovery_overhead_ms : float; (* mu *)
}

val make :
  ?name:string ->
  ?process_names:string array ->
  ?period_ms:float ->
  graph:Task_graph.t ->
  deadline_ms:float ->
  gamma:float ->
  recovery_overhead_ms:float ->
  unit ->
  t
(** Validates and builds an application.  [period_ms] defaults to
    [deadline_ms].  Raises [Invalid_argument] when the deadline or
    period is not positive, [gamma] is outside (0, 1), [mu] is negative,
    or [process_names] has the wrong length. *)

val n_processes : t -> int

val process_name : t -> int -> string

val iterations_per_hour : t -> float
(** tau / T of formula (6): how many application iterations fit in the
    one-hour reliability window (not rounded; the SFP check rounds the
    exponent up for pessimism). *)

val reliability_goal : t -> float
(** rho = 1 - gamma. *)

val pp : Format.formatter -> t -> unit
(** One-line summary (name, size, deadline, goal). *)
