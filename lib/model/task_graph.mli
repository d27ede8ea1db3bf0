(** Directed acyclic task graphs (the application model of Section 2).

    Processes are numbered [0 .. n-1].  An edge [e] from [src] to [dst]
    means the output of [src] is an input of [dst]; when the two
    endpoints are mapped on different computation nodes the edge becomes
    a message on the bus with worst-case transmission time
    [e.transmission_ms].  A process starts only after all its inputs
    have arrived and is never preempted.

    An application may consist of several graphs [G_k]; they are
    represented here as the connected components of a single graph
    value. *)

type edge = { src : int; dst : int; transmission_ms : float }

type t

val make : n:int -> edge list -> t
(** [make ~n edges] validates and freezes a graph with [n] processes.
    Raises [Invalid_argument] if an endpoint is out of range, an edge is
    a self-loop, a pair of processes is connected twice, a transmission
    time is negative or not finite, or the graph has a cycle. *)

val n : t -> int
(** Number of processes. *)

val edges : t -> edge list
(** All edges, in insertion order. *)

val n_edges : t -> int

val succs : t -> int -> edge list
(** Outgoing edges of a process. *)

val succ_offsets : t -> int array
(** Successor adjacency in compressed-sparse-row form, mirroring
    {!succs} element for element: the out-edges of [u] are the indices
    [succ_offsets t .(u) .. succ_offsets t .(u+1) - 1] into
    {!succ_dsts} / {!succ_txs}.  The returned arrays are the graph's
    own (built once at {!make} time) and must not be mutated. *)

val succ_dsts : t -> int array
(** Destination process of each CSR edge slot. *)

val succ_txs : t -> float array
(** Transmission time of each CSR edge slot. *)

val preds : t -> int -> edge list
(** Incoming edges of a process. *)

val in_degree : t -> int -> int
(** O(1): degrees are frozen at {!make} time. *)

val out_degree : t -> int -> int

val in_degrees_into : t -> int array -> unit
(** Blit all in-degrees into the first [n] cells of the argument —
    fills a scheduler scratch array without an [Array.init] per call. *)

val sources : t -> int list
(** Processes with no predecessors, ascending. *)

val sinks : t -> int list
(** Processes with no successors, ascending. *)

val topological_order : t -> int array
(** A fixed topological order (Kahn, smallest-index-first, hence
    deterministic). *)

val longest_path :
  t -> exec:(int -> float) -> comm:(edge -> float) -> float
(** Length of the longest (critical) path where process [i] contributes
    [exec i] and edge [e] contributes [comm e]. *)

val critical_path :
  t -> exec:(int -> float) -> comm:(edge -> float) -> int list
(** The processes of one longest path, in execution order. *)

val bottom_levels :
  t -> exec:(int -> float) -> comm:(edge -> float) -> float array
(** [bottom_levels t ~exec ~comm].(i) is the longest path length from
    the start of process [i] to the end of the graph — the classic list
    scheduling priority. *)

val bottom_levels_wcet :
  t -> wcet:float array -> mapping:int array -> out:float array -> unit
(** Specialized {!bottom_levels} with [exec p = wcet.(p)] and
    [comm e = 0.] when [mapping] puts both endpoints on one member,
    [e.transmission_ms] otherwise — the exact priority pass of the list
    scheduler, without per-edge closure calls.  Writes the level of
    process [i] to [out.(i)] ([out] at least [n] long; its prior
    contents are never read, and entries past [n] are left alone), so
    the scheduler can pass a reused scratch array.  Bit-identical to
    the generic pass on finite inputs. *)

val components : t -> int list list
(** Weakly-connected components (the [G_k] of the application set). *)

val to_dot : t -> string
(** GraphViz rendering (graph [G], processes labelled [P1 .. Pn]), for
    documentation and debugging. *)
