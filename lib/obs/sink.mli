(** Trace sinks: where completed spans go.

    A sink only consumes {!event} records; it never returns data to
    the instrumented code, so installing one cannot change any
    computed result. *)

type event = {
  name : string;
  domain : int;  (** [Domain.self] of the emitting domain. *)
  depth : int;  (** 0 for a root span of its domain. *)
  parent : string option;  (** enclosing span name, if any. *)
  start_ns : int;  (** {!Clock.now_ns} at span entry. *)
  dur_ns : int;
  alloc_b : float;  (** bytes allocated by this domain during the span. *)
}

type t

val null : t
(** Drops every event.  The default; {!Span.with_} short-circuits
    before building an event at all when only the null sink is
    installed. *)

val jsonl : out_channel -> t
(** One minified JSON object per line per completed span; writes are
    serialized with a mutex so domains never interleave bytes.  The
    caller owns (flushes/closes) the channel. *)

val memory : unit -> t
(** Accumulates events in memory; for tests and the profiler. *)

val is_null : t -> bool

val memory_events : t -> event list
(** Events of a {!memory} sink in completion order; [[]] for others. *)

val emit : t -> event -> unit

val event_to_json : event -> Ftes_util.Json.t

val event_of_json : Ftes_util.Json.t -> (event, string) result
(** Inverse of {!event_to_json}; used by the trace round-trip tests. *)
