(** Minimal CSV reader/writer for experiment data series.

    The harness dumps every reproduced table and figure as CSV next to
    the textual report so that plots can be drawn offline; the golden
    regression tests read those files back.  Fields containing commas,
    quotes or newlines are quoted per RFC 4180, and the reader inverts
    exactly the writer's dialect (["\n"] or ["\r\n"] row ends, ["\"\""]
    escapes inside quoted fields). *)

val escape_field : string -> string
(** Quote a single field if needed. *)

val to_string : string list list -> string
(** Full document with ["\n"] line termination. *)

val write_file : string -> string list list -> unit
(** [write_file path rows] writes (or overwrites) [path]. *)

val of_string : string -> string list list
(** Parse a document; the left inverse of {!to_string} ([of_string
    (to_string rows) = rows] for rows without a trailing empty line).
    Raises [Invalid_argument] on an unterminated quoted field. *)

val read_file : string -> string list list
(** [read_file path] parses the whole file. *)
