(** The request lifecycle shared by every frontend.

    A request — a CLI subcommand invocation or one line of daemon
    traffic — moves through five stages: {e parse} (build a
    {!Request.t}), {e validate} (problem and config constructors),
    {e execute} ({!Exec.run}), {e certify} (the verifier report the
    execution attaches) and {e report} (render the payload, settle the
    outcome).  This module owns the two pieces of machinery every
    stage relies on and no frontend may re-implement:

    {b Typed outcomes.}  Frontends never call [Stdlib.exit]: failures
    are {e requested} as typed {!exit_code}s and mapped to a process
    status in exactly one place ({!finish}), so the observability
    teardown below always runs.  [Lint_failure] and [Infeasible] both
    map to status 3 — "a check failed with a report" — as opposed to
    cmdliner's own 1/124/125; the daemon surfaces the same distinction
    as the response envelope's ["verdict"] field instead of a process
    status.

    {b Observability finalization.}  [--trace] / [--metrics] files are
    flushed by {!with_observability}'s finalizer — on normal return,
    on exceptions, and on requested failures alike.  This is the
    lifecycle's finalizer; frontends install it once around their
    work and never duplicate the flush logic. *)

(** Typed request outcomes.  [Success] is status 0; the other two are
    status 3. *)
type exit_code = Success | Lint_failure | Infeasible

val int_of_exit_code : exit_code -> int

val request_exit : exit_code -> unit
(** Record a failure outcome for {!finish} to map; later requests only
    escalate ([Success] never overwrites a recorded failure). *)

val finish : int -> int
(** [finish eval_code] is the process status: [eval_code] when
    non-zero (the frontend's own error conventions win), otherwise the
    status of the worst requested {!exit_code}. *)

(** The observability options every frontend accepts. *)
type obs = { seed : int; trace : string option; metrics : string option }

val with_observability : ?aggregate_spans:bool -> obs -> (unit -> 'a) -> 'a
(** Install the requested span sink for the duration of [f], then
    restore the defaults and flush the files — also on exceptions and
    on {!request_exit}ed failures, which is why frontends must never
    call [Stdlib.exit] themselves.  Span aggregation is forced on
    whenever a metrics snapshot will be written. *)
