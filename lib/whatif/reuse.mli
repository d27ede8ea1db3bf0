(** Reuse telemetry for one warm re-run.

    Counts what the cache migration kept versus dropped and how much of
    the recorded walk the warm pass replayed verbatim — the evidence the
    [whatif/*] verifier rules audit.  The counts
    are observational only: the reuse {e mechanism} is the migrated
    cache, and correctness never depends on these numbers. *)

type t = {
  delta_class : string;  (** {!Delta.class_name} of the applied delta. *)
  sfp_kept : int;
  sfp_dropped : int;
  evals_kept : int;
  evals_dropped : int;
  probes_kept : int;
  probes_dropped : int;
  steps_replayed : int;
      (** Length of the common prefix of the recorded and warm trails. *)
  steps_total : int;  (** Steps in the warm walk's trail. *)
}

val to_json : t -> Ftes_util.Json.t
val of_json : Ftes_util.Json.t -> (t, string) result
