(** Tiny ASCII charts used to render the paper's figures in text form.

    Every figure of the evaluation section (Fig. 6a, 6c, 6d) is a small
    grouped series of percentages over 3-4 x positions, so grouped bar
    charts are the natural text rendering. *)

type series = { label : string; values : float list }

val bar_chart : title:string -> x_labels:string list -> series list -> string
(** [bar_chart ~title ~x_labels series] renders one horizontal bar per
    (x, series) pair, scaled to 50 characters for the value 100.  All series must have [List.length x_labels] values;
    raises [Invalid_argument] otherwise. *)

val sparkline : float list -> string
(** One-line sketch of a numeric series using block characters
    (["_.-~^"] levels in pure ASCII). *)

val scatter :
  title:string ->
  x_label:string ->
  y_label:string ->
  (float * float) list ->
  string
(** [scatter ~title ~x_label ~y_label points] renders an [*]-per-point
    scatter plot on a 60 x 12 character grid, axes annotated with the data extremes — the [ftes pareto]
    cost-vs-slack view.  Coincident grid cells collapse into one mark;
    an empty point list renders a ["(no points)"] placeholder. *)
