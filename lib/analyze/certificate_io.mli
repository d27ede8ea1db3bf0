(** JSON (de)serialization of pre-flight reports — a {!Preflight.t}
    is its own certificate, encoded field for field.

    {v
    {
      "schema_version": 1,
      "problem": { "name": "cc", "n_processes": 32, ... },
      "premises": { "kmax": 12, "reexec": true,
                    "threshold": ..., "budget": ... },
      "bounds": { "critical_path_ms": ..., "critical_path": [...],
                  "total_work_ms": ..., "capacity_ms": ...,
                  "cost_lower_bound": ...,
                  "sfp_cost_lower_bound": ... },
      "tasks": [ { "min_wcet_ms": ..., "min_length_ms": ...,
                   "cheapest_cost": ..., "kneed": [[...], ...] }, ... ],
      "feasible": true,
      "witnesses": [ { "kind": "critical-path", ... }, ... ]
    }
    v}

    Unbounded values ([infinity], meaning "no admissible assignment")
    are encoded as JSON [null].  Decoding never recomputes anything: a
    decoded report carries exactly the claims the [analyze/*] audit
    re-derives and checks, [feasible] included, and its indices are
    not range-checked here — the audit does that against the problem.
    Versioning follows {!Ftes_util.Versioned_json} with
    [accept_v0 = false]. *)

val schema_version : int

val to_json : Preflight.t -> Ftes_util.Json.t

val summary_to_json : Preflight.summary -> Ftes_util.Json.t
(** The ["problem"] object, shared with {!Bnb_certificate_io}. *)

val summary_of_json :
  Ftes_util.Json.t -> (Preflight.summary, string) result

val of_json :
  ?on_warning:(string -> unit) ->
  Ftes_util.Json.t ->
  (Preflight.t, string) result

val to_string : Preflight.t -> string

val of_string :
  ?on_warning:(string -> unit) -> string -> (Preflight.t, string) result

val save : string -> Preflight.t -> unit
(** Write to a file (overwrites). *)

val load :
  ?on_warning:(string -> unit) -> string -> (Preflight.t, string) result
(** Read and parse a file; I/O and decode errors are reported as
    [Error] naming the file. *)
