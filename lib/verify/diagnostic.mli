(** Structured findings of the static verifier.

    Each diagnostic names the rule that produced it, carries a severity
    and points at a location in the verified artifact (a process, an
    architecture member slot, a task-graph edge or a bus message). *)

type severity = Error | Warn | Info

val severity_name : severity -> string
(** ["error"], ["warn"] or ["info"]. *)

type location =
  | Global
  | Process of int  (** process index. *)
  | Member of int  (** architecture member slot. *)
  | Edge of { src : int; dst : int }  (** task-graph edge. *)
  | Message of { src : int; dst : int }  (** bus message of an edge. *)

val location_name : location -> string

type t = {
  rule : string;  (** id of the rule that fired. *)
  severity : severity;
  location : location;
  detail : string;  (** human-readable explanation. *)
}

val make : ?loc:location -> severity -> rule:string -> string -> t

val error : ?loc:location -> rule:string -> ('a, unit, string, t) format4 -> 'a

val warn : ?loc:location -> rule:string -> ('a, unit, string, t) format4 -> 'a

val info : ?loc:location -> rule:string -> ('a, unit, string, t) format4 -> 'a

val pp : Format.formatter -> t -> unit
