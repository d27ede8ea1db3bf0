(** Frontier exchange formats (CSV and JSON).  The JSON document is
    versioned by {!Ftes_util.Versioned_json} with [accept_v0 = true].

    Both readers take the {!Ftes_model.Problem.t} the frontier was
    computed for and re-validate every design against it through the
    checked {!Ftes_model.Design.make}, so a frontier file can never
    smuggle an out-of-library design back into the toolchain. *)

val to_csv : Archive.t -> string list list
(** Header row followed by one row per frontier point, in
    {!Archive.points} order. *)

val of_csv :
  ?spec:Archive.spec ->
  problem:Ftes_model.Problem.t ->
  string list list ->
  (Archive.t, string) result
(** Rebuild an archive ({!Archive.default_spec} unless [spec] is given
    — the CSV carries data only) by re-inserting every row.  Rejects a
    bad header, malformed fields and designs that do not validate. *)

val point_to_json : Archive.point -> Ftes_util.Json.t
(** One frontier point as a JSON object (the element format of
    {!to_json}'s ["points"] list) — exported so campaign checkpoints
    serialize points in the same spelling. *)

val point_of_json :
  problem:Ftes_model.Problem.t ->
  row:int ->
  Ftes_util.Json.t ->
  (Archive.point, string) result
(** Inverse of {!point_to_json}; the design is re-validated against
    [problem] through {!Ftes_model.Design.make}.  Extra fields (a
    campaign checkpoint adds the application index) are ignored.
    [row] only labels error messages. *)

val to_json : ?reference:Archive.reference -> Archive.t -> Ftes_util.Json.t
(** Self-describing document: schema version, objective names, [eps],
    frontier size and points; when [reference] is given, also the
    reference corner and the archive's hypervolume against it. *)

val of_json :
  ?on_warning:(string -> unit) ->
  problem:Ftes_model.Problem.t ->
  Ftes_util.Json.t ->
  (Archive.t, string) result
(** Inverse of {!to_json}; the spec ([objectives] and [eps]) is read
    from the document itself.  [on_warning] receives the v0
    deprecation notice (default: print to [stderr]). *)

val to_string : ?reference:Archive.reference -> Archive.t -> string
(** Rendered {!to_json}. *)

val of_string :
  ?on_warning:(string -> unit) ->
  problem:Ftes_model.Problem.t ->
  string ->
  (Archive.t, string) result
