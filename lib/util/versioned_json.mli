(** The one load/save path of every versioned JSON document the system
    writes (problems, frontiers, certificates, campaign manifests,
    checkpoints and merges, request/response envelopes); DESIGN.md
    "Versioned documents" lists each format and its [accept_v0].

    Convention, mirrored from [Problem_io]:

    - writers stamp an explicit integer ["schema_version"] field;
    - readers accept the current version;
    - a {e missing} field means the pre-versioning v0 format: accepted
      with a deprecation warning ([on_warning]) because v0 and v1
      payloads are identical;
    - an explicit [0] is accepted exactly when the reader opts in
      ([accept_v0]) — document families that never shipped an explicit
      v0 reject it like any other unknown version;
    - any other version is rejected with an error naming both the found
      and the supported versions, so a newer writer surfaces as a clear
      message instead of a confusing constructor error downstream. *)

val field : int -> string * Json.t
(** [field v] is the [("schema_version", v)] pair writers prepend. *)

val decode :
  ?what:string ->
  ?accept_v0:bool ->
  ?on_warning:(string -> unit) ->
  current:int ->
  (Json.t -> ('a, string) result) ->
  Json.t ->
  ('a, string) result
(** [decode ~what ~current body json] validates the document's
    ["schema_version"] against [current] under the convention above,
    then decodes it with [body].  [what] names the document family in
    messages (default ["document"]); [accept_v0] (default [true])
    admits an explicit [0]; [on_warning] (default: print to stderr
    prefixed with [what]) receives the v0 deprecation warning. *)

val load : (Json.t -> ('a, string) result) -> string -> ('a, string) result
(** [load decode path] reads and parses the file [path] and decodes it.
    Every error names the file; none raises. *)

val save : string -> Json.t -> unit
(** [save path json] writes the rendered document plus a trailing
    newline through {!Atomic_file.write}. *)
