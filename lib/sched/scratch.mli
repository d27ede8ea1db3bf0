(** Per-domain scratch arrays for the scheduler hot path.

    The list scheduler runs once per candidate design inside the tabu
    and escalation loops — allocating a dozen short working arrays per
    call dominated its minor-heap traffic.  Each domain owns one arena
    of reusable slots, so repeated schedules on the same domain reuse
    the same backing stores with no locking and no cross-domain
    sharing.

    Contract: an array obtained from a slot is valid only inside the
    enclosing {!with_arena}; it is at least the requested length and
    carries stale contents (callers initialize the prefix they use);
    distinct slots never alias.  Arrays that outlive the call — the
    entries, finish and worst vectors of {!Schedule.t} — must be
    allocated fresh, never from the arena. *)

type t

val with_arena : (t -> 'a) -> 'a
(** Run with the current domain's arena.  A nested acquisition on the
    same domain gets a fresh throwaway arena, so re-entrant schedulers
    cannot alias live scratch. *)

val floats : t -> slot:int -> n:int -> float array
(** Slot indices [0..7]. *)

val ints : t -> slot:int -> n:int -> int array
(** Slot indices [0..3]. *)
