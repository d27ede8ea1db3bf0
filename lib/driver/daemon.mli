(** The resident design service behind [ftes serve].

    The daemon reads one JSON request per line ({!Request}), executes
    them with bounded concurrency on a {!Ftes_par.Pool} and writes one
    response envelope per request ({!Response}) — in request order,
    whatever the pool's schedule.  Requests that target the same
    problem under the same slack/bus/kmax policies share one
    {!Ftes_core.Redundancy_opt.cache} (and through it the SFP node
    tables and candidate evaluations), so a warm daemon answers
    repeated design questions without recomputing; sharing never
    changes any payload byte (the differential tests enforce this).

    A malformed or unknown-version line produces a structured
    [verdict = "error"] response and the daemon keeps serving; nothing
    a client writes can take the process down short of closing the
    pipe. *)

type caches
(** The daemon's shared state: a registry of evaluation caches keyed
    on (slack, bus, kmax, problem), the problem compared by
    {!Ftes_model.Problem_io.equal} (equal minified documents, decided
    without rendering) — the exact bucket
    {!Ftes_core.Redundancy_opt.cache} sharing is sound for (hardening
    strategy and tabu iteration cap deliberately excluded: probe and
    walk outcomes carry them in their keys inside each cache) — plus a
    registry of recorded optimize walks keyed on request id, the base
    trail what-if requests warm-start from via ["base_id"], a memo
    of pre-flight reports keyed on (kmax, re-execution bucket,
    problem), the problem compared the same way, which analyze
    requests answer from, and a memo of exact outcomes
    ({!Ftes_bnb.Bnb.outcome}) keyed on the bucket fields plus hardening
    strategy, tabu iteration cap and [limit], which exact requests
    answer from.  The exact memo stores finished proofs only (a
    {!Ftes_bnb.Bnb.Budget_exhausted} search stores nothing), and
    {!Exec.run} audits a memoised outcome on every request, exactly as
    a fresh one.  All four are {!Ftes_par.Memo} tables, counting under
    the [serve.buckets.*], [serve.registry.*], [serve.preflights.*]
    and [serve.exact.*] obs counter families. *)

val create_caches : ?max_problems:int -> unit -> caches
(** Fresh registry retaining at most [max_problems] (default 64)
    distinct buckets, recorded walks, pre-flight reports and exact
    outcomes each; past that, one-off problems run with a private cache
    (and a fresh pre-flight or proof) instead of growing the daemon. *)

val cache_problems : caches -> int
(** Distinct buckets currently held. *)

val cache_hits : caches -> int

val cache_misses : caches -> int
(** Registry-level lookups: a hit means a request reused another
    request's warm evaluation cache. *)

val registry_hits : caches -> int

val registry_misses : caches -> int
(** Recorded-walk registry lookups: a hit means a ["base_id"] resolved
    to a recorded optimize walk (or a re-registration found its id
    already taken); a miss is an unknown base or a first-time
    registration. *)

val run_lines :
  ?pool:Ftes_par.Pool.t ->
  ?caches:caches ->
  ?telemetry:bool ->
  ?first_seq:int ->
  string list ->
  Response.t list
(** Execute one batch of request lines.  Responses come back 1:1 and
    in input order, numbered [first_seq], [first_seq + 1], …  (default
    0).  Parse failures, unknown versions and execution errors
    (including {!Ftes_bnb.Bnb.Budget_exhausted} and unservable
    what-if requests, {!Exec.Rejected}) become [verdict = "error"]
    responses — never exceptions.  [telemetry] (default [true])
    attaches queue-wait / wall-time and the process-wide cache
    counters sampled at batch end (so they are monotone in [seq]
    across any batching), plus the per-request what-if reuse block on
    warm-started responses.

    Each optimize request's recorded walk is registered under its
    request id {e after} the whole batch executed (sequentially, in
    request order, first registration winning), so a request naming a
    same-batch ["base_id"] fails deterministically whatever pool
    schedule ran the batch.

    A request passes the spans [driver/validate] (parse and
    validation), [driver/dispatch] (execution, payload and verdict,
    with {!Exec}'s [driver/certify] inside) and, once per batch with a
    registry, [driver/register]. *)

type stats = {
  requests : int;  (** responses emitted. *)
  failed : int;  (** of which [verdict = "error"]. *)
  batches : int;  (** pool dispatches. *)
}

val serve :
  ?pool:Ftes_par.Pool.t ->
  ?caches:caches ->
  ?max_batch:int ->
  in_channel ->
  out_channel ->
  stats
(** The daemon loop: read up to [max_batch] (default 16) lines, answer
    them as one pool batch (with telemetry), flush, repeat until EOF.
    [max_batch = 1]
    gives strict request-by-request streaming; larger batches let
    independent requests overlap on the pool.

    A line longer than {!max_line_bytes} is not buffered past the cap:
    the reader discards the rest of it and the line is answered, in its
    place in the stream, by one [verdict = "error"] response with the
    message ["request line exceeds N bytes"] and an empty id. *)

val max_line_bytes : int
(** The request line cap of {!serve}: 8 MiB. *)

val audit :
  ?pool:Ftes_par.Pool.t ->
  ?caches:caches ->
  unit ->
  Response.t list * Ftes_verify.Report.t
(** Self-test behind [ftes serve --audit] and the CI smoke alias:
    drive a mixed built-in batch (analyze, optimize, exact, pareto, a
    one-shot what-if, plus a deliberately malformed line) through
    {!run_lines}, re-parse the emitted wire bytes, and run the
    [serve/*] and [whatif/*] rules over the captured stream, plus the
    [obs/cache-consistency] and [obs/cache-capacity] rules over a
    metrics snapshot taken once the batch returned — so every memo
    family the batch touched, the daemon's registries included, is
    audited. *)
