(** Plain-text tables for the experiment reports.

    The benchmark harness prints every reproduced paper table with this
    renderer so that [bench_output.txt] is self-describing. *)

type align = Left | Right | Center

type t

val create : headers:string list -> t
(** A new table with one column per header (left-aligned by default). *)

val set_aligns : t -> align list -> unit
(** Per-column alignment; shorter lists leave trailing columns as-is. *)

val add_row : t -> string list -> unit
(** Append a row.  Rows shorter than the header are padded with empty
    cells; longer rows raise [Invalid_argument]. *)

val add_separator : t -> unit
(** Append a horizontal rule. *)

val render : t -> string
(** Render with box-drawing in plain ASCII. *)

val cell_float : ?decimals:int -> float -> string
(** Fixed-point cell formatting helper (default 2 decimals). *)

val cell_pct : float -> string
(** Percentage cell: [cell_pct 0.84] is ["84.0"]. *)
