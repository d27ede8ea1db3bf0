(** Minimal JSON reader/writer.

    Problem instances are exchanged as JSON files (see
    {!Ftes_model.Problem_io}); the sealed environment has no JSON
    package, so this is a small self-contained implementation: UTF-8
    strings with the standard escapes, numbers as OCaml floats, no
    surrogate-pair handling beyond pass-through of [\uXXXX] below
    0x80 (escape sequences above that are rejected — the project's data
    files are ASCII). *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list

val to_string : ?minify:bool -> t -> string
(** Render; two-space indentation unless [minify].  Integer-valued
    numbers below 1e15 are written as [Printf]'s [%.0f] writes them,
    other numbers as [%.17g] (so every finite float reads back
    exactly), control characters as [\u%04x] — without going through
    [Printf]. *)

val of_string : string -> (t, string) result
(** Parse a complete document; trailing garbage is an error, and so is
    a number that overflows to a non-finite float ([1e999]) or a list
    or object nested more than 512 levels deep.  Errors carry a
    character offset. *)

(** {1 Accessors} — all return [Error] with a path-aware message rather
    than raising. *)

val member : string -> t -> (t, string) result
(** Field of an object. *)

val to_float : t -> (float, string) result

val to_int : t -> (int, string) result
(** An integral number inside OCaml's [int] range; anything outside it
    is an [Error], never a wrapped value. *)

val to_bool : t -> (bool, string) result
val to_list : t -> (t list, string) result
val to_string_value : t -> (string, string) result

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
(** Result bind, re-exported for parser-style client code. *)

(** {1 Decoding vocabulary} — what every document codec composes. *)

val field : string -> (t -> ('a, string) result) -> t -> ('a, string) result
(** [field key decode json] decodes field [key] of the object [json]. *)

val field_opt :
  string -> (t -> ('a, string) result) -> t -> ('a option, string) result
(** Like {!field}, but an absent field is [None]. *)

val nullable : (t -> ('a, string) result) -> t -> ('a option, string) result
(** [Null] is [None]; any other value goes through [decode]. *)

val list_of : (t -> ('a, string) result) -> t -> ('a list, string) result
(** A JSON list, each element through [decode]; the first [Error] wins. *)

val list_ofi :
  (int -> t -> ('a, string) result) -> t -> ('a list, string) result
(** {!list_of} whose decoder also gets the 0-based element index. *)

val float_array : t -> (float array, string) result
(** A JSON list of numbers. *)

val int_array : t -> (int array, string) result
(** A JSON list of integers (each checked by {!to_int}). *)

val checked : string -> (unit -> 'a) -> ('a, string) result
(** [checked label f] runs a checked constructor, turning the
    [Invalid_argument] it raises on invalid input into
    [Error (label ^ ": " ^ msg)]. *)

val to_float_or_inf : t -> (float, string) result
(** Inverse of {!number_or_null}: [Null] reads back as [infinity]. *)

(** {1 Encoders} *)

val int : int -> t
val ints : int array -> t
val floats : float array -> t

val number_or_null : float -> t
(** [Number x] for finite [x], [Null] otherwise: bounds that are
    [infinity] in memory ("no admissible assignment") have no JSON
    spelling, so they travel as [null]. *)
