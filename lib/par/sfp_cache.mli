(** Memoized SFP node analyses for the design-space exploration.

    The SFP kernel (formulae (1)-(4)) is evaluated per architecture
    member, and its input — the vector of failure probabilities of the
    processes mapped onto the member — is fully determined by the
    member's node type, its hardening version and the set of mapped
    processes.  Candidate designs explored by the tabu mapping search
    and the hardening escalation share most of these
    [(node, h-version, processes)] triples, so the [Pr(f; Njh)] /
    [Pr(f > kj; Njh)] tables are cached under that key instead of being
    rebuilt per candidate.

    A cache instance is bound to one {!Ftes_model.Problem.t}: the key
    does not include the probability tables themselves, only the
    indices that select them.  Create one cache per optimization run
    (as {!Ftes_core.Design_strategy.run} does) and never share it
    across problems.

    The table is a {!Memo} counting under the [sfp_cache.*] family:
    domain-safe, and concurrent lookups of the same key may both
    compute the value, which is harmless because the analysis is a pure
    function of the key.  Cached tables are bit-identical to fresh
    computations, so memoization never changes any result. *)

type key = {
  node : int;  (** library index of the member's node type. *)
  level : int;  (** hardening version in use. *)
  kmax : int;  (** re-execution bound of the table. *)
  procs : int array;  (** mapped processes, ascending. *)
}

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty cache.  Once [capacity] (default [1 lsl 18]) keys are
    stored, further misses compute without inserting, bounding the
    footprint of exhaustive enumerations; [0] stores nothing.  Each
    skipped insert bumps the process-wide [sfp_cache.capacity_drops]
    counter so saturation is observable (see the [obs/cache-capacity]
    verifier rule).  Raises [Invalid_argument] on a negative
    capacity. *)

val node_analysis :
  t ->
  Ftes_model.Problem.t ->
  Ftes_model.Design.t ->
  member:int ->
  kmax:int ->
  Ftes_sfp.Sfp.node_analysis
(** [node_analysis t problem design ~member ~kmax] is
    [Sfp.node_analysis ~kmax] of the member's failure-probability
    vector, served from the cache when the [(node, h-version, procs,
    kmax)] key has been seen before. *)

val exceed_vector :
  t ->
  Ftes_model.Problem.t ->
  Ftes_model.Design.t ->
  member:int ->
  kmax:int ->
  float array
(** Like {!node_analysis}, serving the memoized
    {!Ftes_sfp.Incremental.exceed_vector} of the same table — the
    incremental re-execution kernel's one-lookup read.  Both views
    share one cache entry, so a hit on either serves the other.  The
    vector is shared: callers must not mutate it. *)

val migrate :
  ?same_keys:bool -> keep:(key -> key option) -> t -> t * (int * int)
(** [migrate ~keep t] builds a fresh cache (same capacity, zeroed
    per-instance counters) holding every entry of [t] whose key [keep]
    maps to [Some key'], stored under [key'].  [t] is left untouched.
    Returns the new cache with [(kept, dropped)] counts.

    [same_keys] promises that [keep] only ever answers [None] or the
    entry's own key (no renumbering) — true for every delta whose
    [node_map] is the identity — and lets the migration reuse the
    source table's bucket layout instead of rehashing each key.

    This is the warm-start survival pass: the caller proves — via
    {!Ftes_whatif.Delta.footprint} — that the surviving keys' analyses
    are bit-identical on the perturbed problem (the key's probability
    cells are untouched and [kmax] is part of the key), and remaps
    library indices when the delta reshaped the library.  [keep] must
    be injective on the kept keys. *)

val hits : t -> int

val misses : t -> int

(** Process-wide counters, aggregated over every cache instance, so the
    daemon's telemetry can report one figure across the per-problem
    caches of a whole session. *)
type totals = { total_hits : int; total_misses : int }

val totals : unit -> totals
