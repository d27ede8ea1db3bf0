(** Execute one validated {!Request.t} — the single path behind both
    the one-shot CLI subcommands and the daemon.

    [run] produces a typed {!outcome} (so text frontends can render
    freely); {!payload} renders the machine-readable JSON report — the
    same bytes whether a CLI subcommand prints it or the daemon wraps
    it in a response envelope — and {!verdict} maps the outcome onto
    the response/exit-code semantics.

    Every execution self-certifies, and this is the one place that
    does: optimize and what-if attach the full verifier report of the
    emitted triple, exact audits its optimality certificate (and the
    optimal design) with the [bnb/*] rules, pareto runs the [pareto/*]
    rules over the frontier archive.  The optimizer itself links no
    verifier.  A failed certification degrades the verdict to
    {!Response.Lint_failure} — never to silence.

    Determinism: given equal requests, [payload] is byte-identical
    across runs regardless of [cache] (memoization is contractually
    invisible, see {!Ftes_core.Redundancy_opt}) — the property the
    serve tests enforce. *)

exception Rejected of string
(** A request that is well-formed on the wire but unservable here:
    unknown [base_id], base recorded under a different problem/policy,
    or an inapplicable delta.  Frontends turn it into a structured
    error response, exactly like a parse failure. *)

type outcome =
  | Analyzed of Ftes_analyze.Preflight.t
      (** the pre-flight report — also the certificate [--cert]
          writes. *)
  | Optimized of {
      solution : Ftes_core.Design_strategy.solution option;
      report : Ftes_verify.Report.t option;
          (** the full verifier report on the solution's triple, checked
              against the walk's own SFP tables; present exactly when
              [solution] is. *)
      recorded : Ftes_core.Design_strategy.recorded;
          (** the optimize walk's recorded state — what a daemon
              registers under the request id so later what-if requests
              can warm-start from it via ["base_id"]. *)
      reuse : Ftes_whatif.Reuse.t option;
          (** reuse report, present exactly on warm-started outcomes. *)
    }
  | Proved of {
      outcome : Ftes_bnb.Bnb.outcome;
      report : Ftes_verify.Report.t;
    }
  | Frontiered of {
      frontier : Ftes_core.Design_strategy.frontier;
      reference : Ftes_pareto.Archive.reference;
      report : Ftes_verify.Report.t;
    }

val run :
  ?cache:Ftes_core.Redundancy_opt.cache ->
  ?recorded_of:(string -> Ftes_core.Design_strategy.recorded option) ->
  ?preflight:
    (kmax:int ->
    reexec:bool ->
    Ftes_model.Problem.t ->
    Ftes_analyze.Preflight.t) ->
  Request.t ->
  outcome
(** Execute the request.  [cache] shares SFP tables, candidate
    evaluations and whole architecture steps of the walk with other
    runs over the same problem and policy bucket (the daemon's
    cross-request warm cache); results are bit-identical with or
    without it.

    An analyze request takes its report from [preflight] (default
    {!Ftes_analyze.Preflight.run}), which must return what
    [Preflight.run ~kmax ~reexec problem] would — the daemon passes
    its memo of resident reports.  No other command calls it.

    A what-if request (see {!Request.t.whatif}) resolves its base walk
    through [recorded_of] when it names a ["base_id"] — the base must
    have been recorded under the same problem and config, else
    {!Rejected} — or walks the base cold in the same request when it
    does not, then answers via {!Ftes_core.Design_strategy.rerun}.
    Either way the payload is byte-identical to a cold optimize of the
    perturbed problem; only the telemetry-side {!outcome} fields
    ([recorded], [reuse]) differ.

    Raises {!Ftes_bnb.Bnb.Budget_exhausted} when an exact request's
    evaluation budget runs out, and {!Rejected} on unservable what-if
    requests — frontends turn both into an error report / [Failed]
    response. *)

val audit_exact :
  config:Ftes_core.Config.t ->
  Ftes_model.Problem.t ->
  Ftes_bnb.Bnb.outcome ->
  Ftes_verify.Report.t
(** The report {!run} attaches to an exact outcome: the full registry
    over the optimal design (or the problem alone, when proven
    infeasible) together with the optimality certificate, so the
    [bnb/*] rules audit every premise. *)

val verdict : outcome -> Response.verdict

val payload : Request.t -> outcome -> Ftes_util.Json.t
(** The versioned JSON report of the outcome ([report_json] envelope:
    [schema_version], [subject], [strategy], then command-specific
    fields). *)

val report_json :
  source:string -> strategy:string -> (string * Ftes_util.Json.t) list ->
  Ftes_util.Json.t
(** The shared report envelope every machine-readable CLI report uses
    (lint and audit reports included). *)
