(** List scheduler with recovery slack (Section 6.4).

    Produces the static root schedule for a design: processes are
    placed on their mapped nodes in decreasing bottom-level priority and
    inter-node messages are serialized on the shared bus in
    first-come-first-served order.

    Three recovery-slack policies are provided:

    - {!Shared} — the paper's model, validated against every verdict of
      Fig. 3 and Fig. 4: processes and messages are packed at their
      fault-free times and each node reserves one shared slack region
      sized [kj * (max tijh + mu)] after its last process; the
      worst-case schedule length is the maximum over nodes of
      [nominal finish + slack].  Fault-induced delays are absorbed
      locally on each node; cross-node cascades (a re-execution on one
      node delaying a consumer on another) are {e not} added — see
      DESIGN.md and the {!Ftes_faultsim} optimism experiment.
    - {!Conservative} — a sound variant: a message leaves its node only
      at the producer's worst-case commit time
      [finish + kj * (max t of the processes scheduled so far + mu)], so
      the schedule length upper-bounds every <= kj-faults scenario.
    - {!Dedicated} — no sharing: every process carries its own slack
      [kj * (tijh + mu)] and its node successor starts after it; the
      ablation baseline quantifying the value of slack sharing.
    - {!Per_process} — like [Dedicated], but with an individually chosen
      retry budget per process (see {!Ftes_sfp.Per_process} for the
      matching reliability analysis and {!Ftes_core.Retry_opt} for the
      budget assignment); the design's per-node [kj] values are ignored
      by this policy.
    - {!Checkpointed} — shared slack with checkpointing (the companion
      technique of the paper's reference [15]): process [p] saves its
      state [kappa.(p) - 1] times during execution (each save costs
      [save_ms], inflating the fault-free WCET), and a fault re-executes
      only the failed segment, so the node slack shrinks to
      [kj * (max segment + mu)].  {!Ftes_core.Checkpoint_opt} chooses the
      checkpoint counts. *)

type slack_mode =
  | Shared
  | Conservative
  | Dedicated
  | Per_process of int array
      (** retry budget per process; must cover every process. *)
  | Checkpointed of { kappa : int array; save_ms : float }
      (** checkpoints per process (>= 1 each) and the cost of one
          state save. *)

val schedule :
  ?slack:slack_mode ->
  ?bus:Bus.policy ->
  Ftes_model.Problem.t ->
  Ftes_model.Design.t ->
  Schedule.t
(** Build the root schedule (defaults: [Shared] slack, [Fcfs] bus).

    Processes are placed in decreasing bottom-level priority, ties to
    the lower index — the bottom level counts the design's WCETs and
    transmission times only on edges that cross nodes under its
    mapping.  The ready set lives in a binary heap, and the priority
    vector and the other short-lived working arrays come from the
    domain's {!Scratch} arena. *)

val schedule_length :
  ?slack:slack_mode ->
  ?bus:Bus.policy ->
  Ftes_model.Problem.t ->
  Ftes_model.Design.t ->
  float
(** Worst-case schedule length [SL] of {!schedule}, bit for bit, from
    the same placement pass run without building entry or message
    records: a call allocates a constant number of words whatever the
    graph size. *)

val is_schedulable :
  ?slack:slack_mode ->
  ?bus:Bus.policy ->
  Ftes_model.Problem.t ->
  Ftes_model.Design.t ->
  bool
(** [SL <= D]. *)
