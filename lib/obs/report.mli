(** Reporters over {!Metrics} snapshots: CSV ({!Ftes_util.Csv}) and
    the per-phase profile breakdown printed by [ftes profile]. *)

val write_metrics_csv : string -> Metrics.snapshot -> unit

(** {1 Profile breakdown} *)

type phase = {
  phase : string;  (** span name. *)
  count : int;
  total_ns : int;
  alloc_b : int;
}

val phases_of_snapshot : Metrics.snapshot -> phase list
(** Per-span-name aggregates recovered from the snapshot's
    [span.<name>.*] counters, sorted by descending total time.  Nested
    spans each report their full (inclusive) time. *)

val profile_to_text : wall_ns:int -> Metrics.snapshot -> string

val profile_to_csv : wall_ns:int -> Metrics.snapshot -> string list list
