(** JSON (de)serialization of branch-and-bound optimality certificates.

    {v
    {
      "schema_version": 1,
      "problem": { "name": "cc", "n_processes": 6, ... },
      "premises": { "kmax": 12, "search_space": 582.0,
                    "represented_subsets": 3.0 },
      "costs": { "heuristic": 34.0, "optimal": 30.0 },
      "incumbent": { "members": [...], "levels": [...],
                     "reexecs": [...], "mapping": [...],
                     "cost": 30.0, "schedule_length_ms": ... },
      "counters": { "expanded": ..., "closed": ..., ... },
      "prunes": [ { "kind": "cost-bound", ... }, ... ]
    }
    v}

    Unbounded costs ([infinity], meaning "no solution on that side")
    are encoded as JSON [null]; an infeasible run has a [null]
    incumbent.  The ["problem"] object is {!Certificate_io}'s summary;
    versioning follows {!Ftes_util.Versioned_json} with
    [accept_v0 = false]. *)

val to_json : Bnb_certificate.t -> Ftes_util.Json.t

val counters_to_json : Bnb_certificate.counters -> Ftes_util.Json.t
(** The ["counters"] object — also the [exact] report's. *)

val of_json :
  ?on_warning:(string -> unit) ->
  Ftes_util.Json.t ->
  (Bnb_certificate.t, string) result

val to_string : Bnb_certificate.t -> string

val of_string :
  ?on_warning:(string -> unit) ->
  string ->
  (Bnb_certificate.t, string) result

val save : string -> Bnb_certificate.t -> unit
(** Write to a file (overwrites). *)

val load :
  ?on_warning:(string -> unit) ->
  string ->
  (Bnb_certificate.t, string) result
(** Read and parse a file; I/O and decode errors are reported as
    [Error] naming the file. *)
