module Span = Ftes_obs.Span
module Sink = Ftes_obs.Sink
module Metrics = Ftes_obs.Metrics
module Obs_report = Ftes_obs.Report

type exit_code = Success | Lint_failure | Infeasible

let int_of_exit_code = function
  | Success -> 0
  | Lint_failure | Infeasible -> 3

let pending = Atomic.make Success

let request_exit code =
  (* Only escalate: a recorded failure survives later successes, so a
     multi-request frontend (the daemon) keeps its worst outcome. *)
  match code with
  | Success -> ()
  | Lint_failure | Infeasible -> Atomic.set pending code

let finish eval_code =
  if eval_code <> 0 then eval_code
  else int_of_exit_code (Atomic.get pending)

type obs = { seed : int; trace : string option; metrics : string option }

let with_observability ?(aggregate_spans = false) obs f =
  let trace_oc = Option.map open_out obs.trace in
  let sink =
    match trace_oc with Some oc -> Sink.jsonl oc | None -> Sink.null
  in
  Span.configure ~sink ~aggregate:(aggregate_spans || obs.metrics <> None) ();
  Fun.protect
    ~finally:(fun () ->
      Span.disable ();
      (match obs.metrics with
      | Some path -> Obs_report.write_metrics_csv path (Metrics.snapshot ())
      | None -> ());
      Option.iter close_out trace_oc)
    f
