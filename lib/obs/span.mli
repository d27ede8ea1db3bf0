(** Hierarchical, monotonic-clock-timed spans.

    [Span.with_ ~name f] runs [f] and, when observability is enabled,
    records how long it took and how much the current domain allocated
    meanwhile.  Spans nest; each domain keeps its own stack (via
    [Domain.DLS]), so spans opened inside {!Ftes_par.Pool} workers
    attribute to the worker's own hierarchy and never race with the
    spawning domain.

    Two independent consumers can be enabled:

    - a trace {!Sink.t}, receiving one {!Sink.event} per completed
      span (JSONL file, or in-memory for tests);
    - the aggregator, folding per-name totals into the {!Metrics}
      registry under [span.<name>.count] / [.ns] / [.alloc_b] and a
      latency histogram [span.<name>.ns.hist] — what `ftes profile`
      reads.

    With both off (the default) [with_ ~name f] is [f ()] after one
    atomic load and a branch — the near-zero "null sink" path, which
    allocates nothing beyond [f]'s own (test_obs checks it).  Sinks and aggregates only observe, so
    enabling them cannot change any optimizer result. *)

val with_ : name:string -> (unit -> 'a) -> 'a
(** Exception-safe: the span is closed (and emitted) on raise too. *)

val configure : ?sink:Sink.t -> ?aggregate:bool -> unit -> unit
(** Install the given sink (default {!Sink.null}) and aggregation
    switch, replacing the previous configuration.  Global: affects
    every domain. *)

val disable : unit -> unit
(** Back to the defaults: null sink, no aggregation. *)

val enabled : unit -> bool

type config = { sink : Sink.t; aggregate : bool }

val span_prefix : string
(** Prefix of the aggregated metric names, ["span."]. *)

val stack_depth : unit -> int
(** Open spans on the calling domain's stack (tests). *)
