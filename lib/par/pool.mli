(** Domain-based work pool for the design-space exploration.

    A pool describes how many domains a parallel map may use.  The
    implementation distributes the task indices over per-worker
    work-stealing deques: each worker drains its own deque from the
    bottom and steals from the top of a victim's deque once it runs
    dry, so uneven per-candidate costs (some architectures take far
    longer to evaluate than others) still load-balance.

    Determinism contract: [map pool f xs] applies [f] to every element
    exactly once and returns the results in input order, so it is
    observationally [List.map f xs] whenever [f] is pure — regardless
    of the number of domains or of the stealing schedule.  Every
    caller in the exploration stack relies on this to keep parallel
    runs bit-identical to sequential ones.

    Nested parallelism is flattened: a [map] issued from inside a pool
    worker runs sequentially instead of spawning further domains, so
    parallelizing an outer loop (apps) never multiplies with an inner
    loop (candidate architectures). *)

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

val in_worker : unit -> bool
(** True while the calling domain is executing inside a pool worker.
    A [map] issued here runs sequentially; callers that choose between
    a lazy sequential walk and a speculative parallel one (such as
    {!Ftes_core.Design_strategy.run}) use this to avoid speculating
    where no parallelism is available. *)

val map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** Ordered parallel map.  Without [?pool] (or with {!sequential}) it
    is exactly [List.map].  Exceptions raised by [f] are re-raised in
    the calling domain after all workers have stopped. *)

val map_seeded :
  ?pool:t -> prng:Ftes_util.Prng.t -> (Ftes_util.Prng.t -> 'a -> 'b) ->
  'a list -> 'b list
(** [map_seeded ~prng f xs] gives every element its own PRNG stream,
    derived by [Ftes_util.Prng.split] in input order {e before} any
    parallelism starts.  The stream assignment therefore depends only
    on [prng] and the list order, never on the execution schedule:
    stochastic work (fault-injection campaigns) stays bit-identical
    across domain counts. *)
