(** Checkpoint-count assignment (the companion software technique of the
    paper's reference [15], "checkpointing and replication").

    With [kappa] checkpoints a process of WCET [t] pays
    [(kappa - 1) * save] extra fault-free time but re-executes only one
    segment ([t / kappa + mu]) per fault.  On a node with a shared
    budget of [k] re-executions, the worst case of a lone process is

    {v W(kappa) = t + (kappa - 1) * save + k * (t / kappa + mu) v}

    minimized near the classical [kappa* = sqrt (k * t / save)].  For a
    whole design the node slack is governed by the {e largest} segment
    on the node, so after seeding every process with its closed-form
    optimum the heuristic keeps adding checkpoints to the process with
    the largest segment while the worst-case schedule length improves. *)

val lone_worst_case :
  t:float -> save:float -> mu:float -> kappa:int -> k:int -> float
(** The W(kappa) formula above.  Raises [Invalid_argument] for
    [kappa < 1], negative overheads or negative [k]. *)

val optimal_checkpoints : t:float -> save:float -> k:int -> int
(** Exact minimizer of {!lone_worst_case} over [1 .. 20] ([mu] does
    not influence the optimum).  [save = 0] returns the cap 20; [k = 0]
    returns 1. *)

val optimize :
  ?save_ms:float ->
  Ftes_model.Problem.t ->
  Ftes_model.Design.t ->
  int array * float
(** [optimize problem design] chooses checkpoint counts for every
    process of a design whose re-execution budgets are already fixed,
    and returns them with the resulting worst-case schedule length under
    {!Ftes_sched.Scheduler.Checkpointed}, at most 20 checkpoints per
    process.  Default save overhead: half the recovery overhead [mu]. *)
