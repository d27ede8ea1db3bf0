(** Shared floating-point comparison tolerances.

    Every schedulability verdict, slack contract and verifier rule
    compares times through these helpers instead of scattering [1e-9]
    literals, so the producer (scheduler), its validator and the
    independent static verifier all agree on what "equal" means. *)

val time_eps_ms : float
(** Absolute slop for times in milliseconds. *)

val cost_eps : float
(** Absolute slop for architecture costs. *)

val prob_eps : float
(** Absolute slop for unrounded probability comparisons (below the
    {!Rounding} grain). *)

val leq : ?eps:float -> float -> float -> bool
(** [leq a b] is [a <= b] up to [eps] (default {!time_eps_ms}). *)

val lt : ?eps:float -> float -> float -> bool
(** [lt a b] is [a < b] by more than [eps]. *)

val gt : ?eps:float -> float -> float -> bool
(** [gt a b] is [a > b] by more than [eps]. *)

val approx : ?eps:float -> float -> float -> bool
(** [approx a b] is [|a - b| <= eps]. *)
