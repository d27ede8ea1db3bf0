(** One runner per table / figure of the paper's evaluation (Fig. 6 and
    the cruise-controller study), each producing both our measured
    series and the paper's reference values so reports are
    side-by-side.

    Paper references for Fig. 6b come from its printed table; those for
    Fig. 6a are its ArC = 20 rows; Fig. 6c / 6d references are read off
    the bar charts and marked approximate. *)

(** A reproduced chart/table: percentages of accepted applications per
    x-position (HPD or SER) and per strategy. *)
type artifact = {
  id : string;  (** "fig6a" ... "fig6d". *)
  title : string;
  x_labels : string list;
  ours : (string * float list) list;  (** strategy -> series. *)
  paper : (string * float list) list;
  note : string;
}

val fig6a : Synthetic.suite -> artifact
(** Acceptance vs HPD at SER = 1e-11, ArC = 20. *)

val fig6b : Synthetic.suite -> artifact list
(** The full table: one artifact per ArC in {15, 20, 25}, acceptance vs
    HPD at SER = 1e-11. *)

val fig6c : Synthetic.suite -> artifact
(** Acceptance vs SER at HPD = 5%, ArC = 20. *)

val fig6d : Synthetic.suite -> artifact
(** Acceptance vs SER at HPD = 100%, ArC = 20. *)

val render : artifact -> string
(** Text table (ours vs paper) followed by an ASCII bar chart of our
    series. *)

val to_csv : artifact -> string list list

(** The cruise-controller case study. *)
type cc_result = {
  rows : (string * bool * float option * float option) list;
      (** strategy, feasible, cost, schedule length. *)
  opt_saving_vs_max : float option;
      (** (C_MAX - C_OPT) / C_MAX, when both are feasible. *)
}

val cc_study : unit -> cc_result
(** The §7 cruise-controller study under MAX, MIN and OPT. *)

val render_cc : cc_result -> string
