(** JSON (de)serialization of problem instances.

    The on-disk format mirrors the paper's inputs directly:

    {v
    {
      "schema_version": 1,
      "application": {
        "name": "fig1",
        "deadline_ms": 360, "period_ms": 360,
        "gamma": 1e-5, "recovery_overhead_ms": 15,
        "processes": ["P1", "P2", "P3", "P4"],
        "edges": [ {"src": 0, "dst": 1, "transmission_ms": 10}, ... ]
      },
      "library": [
        { "name": "N1",
          "versions": [
            {"level": 1, "cost": 16,
             "wcet_ms": [60, 75, 60, 75],
             "pfail": [1.2e-3, 1.3e-3, 1.4e-3, 1.6e-3]}, ... ] }, ... ]
    }
    v}

    Loading re-validates everything through the checked constructors, so
    a malformed file is reported as an [Error] rather than producing an
    inconsistent instance.  Versioning follows
    {!Ftes_util.Versioned_json} with [accept_v0 = true]. *)

val schema_version : int
(** The version this build writes. *)

val to_json : Problem.t -> Ftes_util.Json.t

val node_type_to_json : Platform.node_type -> Ftes_util.Json.t
(** One library entry: [{"name", "versions": [{"level", "cost",
    "wcet_ms", "pfail"}, ...]}] — also the payload of a what-if
    [node-add] delta, so a node copied out of a problem file pastes
    straight into one. *)

val node_type_of_json :
  Ftes_util.Json.t -> (Platform.node_type, string) result
(** Inverse of {!node_type_to_json}, through the checked
    {!Platform.hversion} and {!Platform.node_type}. *)

val of_json :
  ?on_warning:(string -> unit) -> Ftes_util.Json.t -> (Problem.t, string) result

val to_string : Problem.t -> string

val canonical_key : Problem.t -> string
(** The minified v1 document: two problems have equal keys exactly
    when they encode to the same document, so inline and built-in
    spellings of one instance share a key.  What the daemon buckets
    its warm caches by and a what-if base is matched against. *)

val of_string :
  ?on_warning:(string -> unit) -> string -> (Problem.t, string) result

val save : string -> Problem.t -> unit
(** Write to a file (overwrites). *)

val load :
  ?on_warning:(string -> unit) -> string -> (Problem.t, string) result
(** Read and parse a file; I/O and decode errors are reported as
    [Error] naming the file. *)
