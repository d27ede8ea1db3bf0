(** Small statistics helpers for the experiment harness. *)

val mean : float list -> float
(** Arithmetic mean; [0.] on the empty list. *)

val percentile : float list -> float -> float
(** [percentile xs q] with [q] in [\[0,1\]], linear interpolation between
    order statistics.  Raises [Invalid_argument] on the empty list. *)

val binomial_confidence : successes:int -> trials:int -> float * float
(** 95% Wilson score interval for a proportion; used to attach error
    bars to Monte-Carlo failure-probability estimates. *)
