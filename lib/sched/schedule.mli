(** Static cyclic ("root") schedules with recovery slack.

    A schedule fixes, for the fault-free case, the start time of every
    process on its node and of every inter-node message on the bus, and
    reserves {e recovery slack} so that up to [kj] re-executions on node
    [Nj] (each preceded by the recovery overhead mu) never push the
    application past its worst-case schedule length (Section 6.4). *)

type entry = {
  proc : int;
  slot : int;  (** architecture member executing the process. *)
  start : float;  (** fault-free start time, ms. *)
  finish : float;  (** fault-free completion, [start + tijh]. *)
  commit : float;
      (** time at which the process's outputs may leave the node.  Under
          the paper's shared-slack model this is [finish]; the
          conservative and dedicated policies delay it by the recovery
          slack (see {!Scheduler.slack_mode}). *)
}

type message = {
  edge : Ftes_model.Task_graph.edge;
  bus_start : float;
  bus_finish : float;
}

type t = {
  entries : entry array;  (** indexed by process. *)
  messages : message list;  (** bus traffic, in transmission order. *)
  node_finish : float array;  (** fault-free completion per member. *)
  node_worst : float array;
      (** worst-case completion per member including its recovery
          slack. *)
  length : float;  (** worst-case schedule length [SL]. *)
}

val length : t -> float

val entry : t -> proc:int -> entry

val utilization : t -> slot:int -> float
(** Fault-free busy fraction of a member up to its nominal finish. *)

val validate :
  Ftes_model.Problem.t -> Ftes_model.Design.t -> t -> (unit, string) result
(** Structural soundness of a schedule against its design: durations
    match the WCET tables, precedence is respected (same-node successors
    after the producer's finish, cross-node successors after a bus
    message that leaves no earlier than the producer's commit), nothing
    overlaps on any node or on the bus, and the worst-case length is the
    latest node completion.  The per-mode slack contracts are asserted
    separately in the test-suite. *)

val to_gantt : Ftes_model.Problem.t -> Ftes_model.Design.t -> t -> string
(** ASCII Gantt chart (one row per node and one for the bus), in the
    style of the paper's Fig. 3 / Fig. 4. *)
