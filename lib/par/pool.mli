(** Domain-based parallel map for independent tasks: the applications
    of one experiment cell and the requests of one daemon batch.

    A pool describes how many domains a parallel map may use.  Every
    worker, the calling domain included, claims the next task index
    from one shared atomic counter until none are left, so a slow task
    never holds the others back.

    Determinism contract: [map pool f xs] applies [f] to every element
    exactly once and returns the results in input order, so it is
    observationally [List.map f xs] whenever [f] is pure — regardless
    of the number of domains or of which worker claimed which index.

    Nested parallelism is flattened: a [map] issued from inside a pool
    worker runs sequentially instead of spawning further domains. *)

type t
(** A pool descriptor.  Pools are cheap values; domains are spawned
    per [map] call and joined before it returns, so no explicit
    shutdown is needed. *)

val create : ?domains:int -> unit -> t
(** [create ()] takes its domain count from the [FTES_DOMAINS]
    environment variable when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()].  [domains] below 1 raises
    [Invalid_argument]. *)

val sequential : t
(** A one-domain pool: every map degrades to [List.map]. *)

val domains : t -> int

val map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** Ordered parallel map.  Without [?pool] (or with {!sequential}) it
    is exactly [List.map].  The first exception raised by [f] stops
    further claims and is re-raised in the calling domain after all
    workers have stopped. *)

val map_seeded :
  ?pool:t -> prng:Ftes_util.Prng.t -> (Ftes_util.Prng.t -> 'a -> 'b) ->
  'a list -> 'b list
(** [map_seeded ~prng f xs] gives every element its own PRNG stream,
    derived by [Ftes_util.Prng.split] in input order {e before} any
    parallelism starts.  The stream assignment therefore depends only
    on [prng] and the list order, never on the execution schedule:
    stochastic work (fault-injection campaigns) stays bit-identical
    across domain counts. *)
