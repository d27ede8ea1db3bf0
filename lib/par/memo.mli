(** Bounded, domain-safe memo tables with observable counters.

    Every shared cache of the exploration — the SFP node tables
    ({!Sfp_cache}), the candidate-evaluation, probe and walk tables of
    {!Ftes_core.Redundancy_opt} and the daemon's bucket, recorded-walk
    and pre-flight registries — stores a pure function of its key, so
    one implementation serves them all: a hash table behind one mutex,
    a capacity past which new keys are computed but not retained, and
    one counter family per cache kind.

    A lookup ({!find}) classifies itself as a hit or a miss; the caller
    computes a missed value {e outside} the lock and offers it back with
    {!add}, which keeps the first value stored for a key.  Concurrent
    misses on one key may therefore compute twice — harmless for a pure
    function — but every caller gets the same (physically equal) stored
    value back. *)

type family = private {
  lookups : Ftes_obs.Metrics.counter;
  hits : Ftes_obs.Metrics.counter;
  misses : Ftes_obs.Metrics.counter;
  capacity_drops : Ftes_obs.Metrics.counter;
}
(** The process-wide counters [<prefix>.lookups], [.hits], [.misses]
    and [.capacity_drops], shared by every memo created with the
    family.  Each {!find} bumps [lookups] and exactly one of [hits] /
    [misses]; each {!add} refused for capacity bumps [capacity_drops]
    — the invariants the [obs/cache-consistency] and
    [obs/cache-capacity] verifier rules audit. *)

val family : string -> family
(** [family prefix] registers (or finds) the four counters. *)

val reset : family -> unit
(** Zero all four counters of the family together, so a reset can never
    leave more drops than misses behind. *)

module Make (K : Hashtbl.HashedType) : sig
  type key = K.t

  type 'v t

  val create : ?capacity:int -> family -> 'v t
  (** Fresh empty memo counting under [family].  At most [capacity]
      (default [1 lsl 18]) keys are retained; [0] stores nothing, so
      every lookup misses.  Raises [Invalid_argument] on a negative
      capacity. *)

  val find : 'v t -> key -> 'v option
  (** Counted lookup.  The key is only read, so callers may pass
      arrays they mutate afterwards; keys given to {!add} must not be
      mutated once stored. *)

  val add : 'v t -> key -> 'v -> 'v
  (** [add t key v] stores [v] unless [key] is already bound, and
      returns the stored value (the earlier one on a concurrent
      duplicate).  When the memo is full, [v] is returned unstored and
      the family's [capacity_drops] counter is bumped. *)

  val migrate :
    ?same_keys:bool ->
    keep:(key -> 'v -> (key * 'v) option) ->
    'v t ->
    'v t * (int * int)
  (** [migrate ~keep t] is a fresh memo (same family and capacity,
      zeroed per-instance counters) holding [(key', v')] for every
      binding of [t] that [keep] maps to [Some (key', v')], with the
      [(kept, dropped)] counts.  [t] is left untouched.  [keep] must be
      injective on keys.

      [same_keys] promises that [keep] only ever returns the binding's
      own key, which lets the copy reuse the source's bucket layout
      instead of rehashing every key. *)

  val hits : 'v t -> int
  (** Lookups of this instance that hit. *)

  val misses : 'v t -> int

  val length : 'v t -> int
  (** Keys stored. *)

  val capacity : 'v t -> int
  (** The bound given to {!create} (kept by {!migrate}). *)

  val fold : (key -> 'v -> 'a -> 'a) -> 'v t -> 'a -> 'a
  (** Fold over the bindings (order unspecified) under the lock; [f]
      must not use the memo. *)
end
