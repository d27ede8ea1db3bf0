(* Tests of the observability layer: span nesting, metrics merging
   across domains, trace round-trips, the obs/* verifier rules, and the
   layer's headline contract — tracing never changes an optimizer
   result. *)

module Clock = Ftes_obs.Clock
module Metrics = Ftes_obs.Metrics
module Sink = Ftes_obs.Sink
module Span = Ftes_obs.Span
module Obs_report = Ftes_obs.Report
module Pool = Ftes_par.Pool
module Config = Ftes_core.Config
module Design = Ftes_model.Design
module Design_strategy = Ftes_core.Design_strategy
module Redundancy_opt = Ftes_core.Redundancy_opt
module Scheduler = Ftes_sched.Scheduler
module Bus = Ftes_sched.Bus
module Workload = Ftes_gen.Workload
module Json = Ftes_util.Json

(* Span configuration is global; never leak one test's sink into the
   next. *)
let with_spans ?sink ?aggregate f =
  Span.configure ?sink ?aggregate ();
  Fun.protect ~finally:Span.disable f

(* --- clock --- *)

let test_clock_monotone () =
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  Alcotest.(check bool) "time does not go backwards" true (b >= a);
  Alcotest.(check (float 1e-9)) "ns_to_ms" 1.5 (Clock.ns_to_ms 1_500_000)

(* --- metrics --- *)

let test_counter_basics () =
  let c = Metrics.counter "test.basics" in
  Metrics.reset_counter c;
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Metrics.counter_value c);
  Alcotest.(check bool) "same name, same counter" true
    (Metrics.counter_value (Metrics.counter "test.basics") = 42);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Ftes_obs.Metrics.add: counters are monotone")
    (fun () -> Metrics.add c (-1))

let test_kind_mismatch () =
  ignore (Metrics.counter "test.kinded");
  Alcotest.(check bool) "re-registering as a gauge raises" true
    (match Metrics.gauge "test.kinded" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_histogram_buckets () =
  let h = Metrics.histogram "test.hist" in
  List.iter (Metrics.observe h) [ 1; 2; 3; 1000; 1_000_000 ];
  let snap = Metrics.snapshot () in
  match Metrics.find_histogram snap "test.hist" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some hs ->
      Alcotest.(check int) "count" 5 (Metrics.hist_count hs);
      Alcotest.(check int) "sum" 1_001_006 (Metrics.hist_sum hs);
      Alcotest.(check int) "bucket of 1" 0 (Metrics.bucket_of_value 1);
      Alcotest.(check int) "bucket of 1000" 9 (Metrics.bucket_of_value 1000);
      Alcotest.(check bool) "p99 >= p50" true
        (Metrics.hist_quantile hs 0.99 >= Metrics.hist_quantile hs 0.5)

let test_snapshot_sorted () =
  ignore (Metrics.counter "test.zz");
  ignore (Metrics.counter "test.aa");
  let snap = Metrics.snapshot () in
  let names = List.map fst snap.Metrics.counters in
  Alcotest.(check bool) "counters sorted by name" true
    (names = List.sort compare names)

(* --- span nesting --- *)

(* Random span trees: execute one, then check the completion-order
   event stream is well formed. *)
type tree = T of int * tree list

let tree_gen =
  QCheck.Gen.(
    sized_size (int_bound 5) @@ fix (fun self n ->
        if n <= 0 then return []
        else
          list_size (int_bound 3)
            (map2 (fun k sub -> T (k, sub)) (int_bound 2) (self (n / 2)))))

let rec run_tree path forest =
  List.iter
    (fun (T (k, sub)) ->
      let name = Printf.sprintf "%s.%d" path k in
      Span.with_ ~name (fun () -> run_tree name sub))
    forest

let well_formed events =
  (* Children complete before their parents, so a parent's event comes
     later in the stream and must enclose the child's interval. *)
  let ok = ref true in
  List.iteri
    (fun i (e : Sink.event) ->
      if e.Sink.depth < 0 then ok := false;
      if e.Sink.depth > 0 && e.Sink.parent = None then ok := false;
      match e.Sink.parent with
      | None -> ()
      | Some parent_name ->
          let enclosing =
            List.exists
              (fun (p : Sink.event) ->
                p.Sink.name = parent_name
                && p.Sink.depth = e.Sink.depth - 1
                && p.Sink.start_ns <= e.Sink.start_ns
                && p.Sink.start_ns + p.Sink.dur_ns
                   >= e.Sink.start_ns + e.Sink.dur_ns)
              (List.filteri (fun j _ -> j > i) events)
          in
          if not enclosing then ok := false)
    events;
  !ok

let prop_span_nesting =
  QCheck.Test.make ~count:50 ~name:"span event stream is well formed"
    (QCheck.make tree_gen) (fun tree ->
      let sink = Sink.memory () in
      with_spans ~sink (fun () -> run_tree "t" tree);
      Span.stack_depth () = 0 && well_formed (Sink.memory_events sink))

let test_span_disabled_is_transparent () =
  Alcotest.(check bool) "disabled by default" false (Span.enabled ());
  Alcotest.(check int) "result passes through" 7
    (Span.with_ ~name:"x" (fun () -> 7));
  Alcotest.(check int) "no stack entries" 0 (Span.stack_depth ())

(* The disabled path is [if not enabled then f ()]: a span costs no
   allocation on top of the wrapped function's own, so leaving the
   instrumentation in the hot paths is free when tracing is off. *)
let test_span_disabled_allocates_nothing () =
  Span.disable ();
  let work () = Sys.opaque_identity (ref 0) in
  let minor_words_of f =
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do
      ignore (Sys.opaque_identity (f ()))
    done;
    Gc.minor_words () -. before
  in
  let bare = minor_words_of work in
  let spanned = minor_words_of (fun () -> Span.with_ ~name:"noop" work) in
  Alcotest.(check bool) "the wrapped function allocates" true (bare > 0.0);
  Alcotest.(check (float 0.0)) "no minor words beyond the function's own"
    bare spanned

let test_span_exception_safe () =
  let sink = Sink.memory () in
  with_spans ~sink (fun () ->
      (try Span.with_ ~name:"boom" (fun () -> failwith "no") with _ -> ());
      Alcotest.(check int) "stack popped on raise" 0 (Span.stack_depth ()));
  match Sink.memory_events sink with
  | [ e ] -> Alcotest.(check string) "span still emitted" "boom" e.Sink.name
  | events -> Alcotest.failf "expected 1 event, got %d" (List.length events)

let test_span_aggregates () =
  Metrics.reset ();
  with_spans ~aggregate:true (fun () ->
      for _ = 1 to 5 do
        Span.with_ ~name:"agg" (fun () -> ignore (Sys.opaque_identity 1))
      done);
  let snap = Metrics.snapshot () in
  Alcotest.(check (option int)) "completion counter" (Some 5)
    (Metrics.find_counter snap "span.agg.count");
  (match Metrics.find_histogram snap "span.agg.ns.hist" with
  | Some hs -> Alcotest.(check int) "histogram count" 5 (Metrics.hist_count hs)
  | None -> Alcotest.fail "no latency histogram");
  match Obs_report.phases_of_snapshot snap with
  | [ p ] ->
      Alcotest.(check string) "phase name" "agg" p.Obs_report.phase;
      Alcotest.(check int) "phase calls" 5 p.Obs_report.count
  | phases -> Alcotest.failf "expected 1 phase, got %d" (List.length phases)

(* --- cross-domain merging --- *)

let test_cross_domain_merge () =
  let c = Metrics.counter "test.par.count" in
  let h = Metrics.histogram "test.par.hist" in
  Metrics.reset_counter c;
  let pool = Pool.create ~domains:2 () in
  let n = 200 in
  let input = Array.init n (fun i -> i) in
  let _ =
    Pool.map_array ~pool
      (fun i ->
        Metrics.incr c;
        Metrics.observe h (1 + (i mod 7));
        i)
      input
  in
  Alcotest.(check int) "increments from every domain land" n
    (Metrics.counter_value c);
  let snap = Metrics.snapshot () in
  match Metrics.find_histogram snap "test.par.hist" with
  | Some hs ->
      Alcotest.(check bool) "histogram merged" true (Metrics.hist_count hs >= n)
  | None -> Alcotest.fail "histogram missing"

(* --- trace round-trips --- *)

let event_gen =
  QCheck.Gen.(
    map (fun (name, domain, depth, parent, start_ns, dur_ns, alloc) ->
        { Sink.name; domain; depth; parent; start_ns; dur_ns;
          alloc_b = float_of_int alloc })
      (tup7 (string_size ~gen:printable (int_range 1 12)) (int_bound 8)
         (int_bound 5)
         (option (string_size ~gen:printable (int_range 1 12)))
         (int_bound 1_000_000_000) (int_bound 1_000_000) (int_bound 100_000)))

let prop_event_json_roundtrip =
  QCheck.Test.make ~count:200 ~name:"Sink.event_of_json (event_to_json e) = e"
    (QCheck.make event_gen) (fun e ->
      match Sink.event_of_json (Sink.event_to_json e) with
      | Ok e' -> e = e'
      | Error _ -> false)

let test_jsonl_trace_parses () =
  let path = Filename.temp_file "ftes_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      with_spans ~sink:(Sink.jsonl oc) (fun () ->
          Span.with_ ~name:"outer" (fun () ->
              Span.with_ ~name:"inner" (fun () -> ())));
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let events =
        List.rev_map
          (fun line ->
            match Result.bind (Json.of_string line) Sink.event_of_json with
            | Ok e -> e
            | Error e -> Alcotest.failf "unparseable trace line: %s" e)
          !lines
      in
      Alcotest.(check (list string)) "completion order" [ "inner"; "outer" ]
        (List.map (fun (e : Sink.event) -> e.Sink.name) events))

(* --- obs/* verifier rules --- *)

module Verify = Ftes_verify.Verify
module Subject = Ftes_verify.Subject
module Report = Ftes_verify.Report

let problem_of_seed seed =
  let spec =
    Workload.generate_spec ~seed ~index:0 ~n_processes:(8 + (seed mod 5)) ()
  in
  Workload.problem_of_spec { Workload.ser = 1e-11; hpd = 0.25 } spec

let run_obs_rules snapshot =
  Verify.run ~rules:Ftes_verify.Obs_rules.all
    (Subject.with_metrics (Subject.of_problem (problem_of_seed 7)) snapshot)

let empty_snapshot = { Metrics.counters = []; gauges = []; histograms = [] }

let test_obs_rules_pass_live_snapshot () =
  Metrics.reset ();
  with_spans ~aggregate:true (fun () ->
      ignore (Design_strategy.run ~config:Config.default (problem_of_seed 3)));
  let report = run_obs_rules (Metrics.snapshot ()) in
  Alcotest.(check bool)
    ("live snapshot certifies:\n" ^ Report.to_text report)
    true (Report.ok report)

let test_obs_rules_skip_without_metrics () =
  let report =
    Verify.run ~rules:Ftes_verify.Obs_rules.all
      (Subject.of_problem (problem_of_seed 7))
  in
  Alcotest.(check int) "all obs rules skipped" 7
    (List.length report.Report.rules_skipped)

(* Mutation tests: each hand-broken snapshot must trip exactly the rule
   that covers the broken invariant. *)
let fires rule report =
  List.exists
    (fun (d : Ftes_verify.Diagnostic.t) ->
      d.Ftes_verify.Diagnostic.rule = rule
      && d.Ftes_verify.Diagnostic.severity = Ftes_verify.Diagnostic.Error)
    report.Report.diagnostics

let test_obs_rule_mutations () =
  let check label rule snapshot =
    let report = run_obs_rules snapshot in
    Alcotest.(check bool) (label ^ " fires " ^ rule) true (fires rule report)
  in
  check "negative counter" "obs/counters-monotone"
    { empty_snapshot with Metrics.counters = [ ("bad.count", -3) ] };
  check "hits + misses <> lookups" "obs/cache-consistency"
    { empty_snapshot with
      Metrics.counters =
        [ ("c.hits", 5); ("c.lookups", 10); ("c.misses", 4) ] };
  check "bucket / count mismatch" "obs/histogram-consistency"
    { empty_snapshot with
      Metrics.histograms =
        [ ("h", { Metrics.buckets = [| 1; 2 |]; count = 4; sum = 9 }) ] };
  check "empty histogram with sum" "obs/histogram-consistency"
    { empty_snapshot with
      Metrics.histograms =
        [ ("h", { Metrics.buckets = [| 0 |]; count = 0; sum = 5 }) ] };
  check "capacity drops exceed misses" "obs/cache-capacity"
    { empty_snapshot with
      Metrics.counters =
        [ ("c.capacity_drops", 7); ("c.hits", 6); ("c.lookups", 10);
          ("c.misses", 4) ] };
  check "span count / histogram drift" "obs/span-aggregates"
    { empty_snapshot with
      Metrics.counters = [ ("span.x.count", 3) ];
      Metrics.histograms =
        [ ( "span.x.ns.hist",
            { Metrics.buckets = [| 2 |]; count = 2; sum = 2 } ) ] };
  (* And the matching healthy snapshots stay clean. *)
  let healthy =
    { Metrics.counters =
        [ ("c.capacity_drops", 3); ("c.hits", 6); ("c.lookups", 10);
          ("c.misses", 4); ("span.x.count", 2) ];
      gauges = [];
      histograms =
        [ ( "span.x.ns.hist",
            { Metrics.buckets = [| 1; 1 |]; count = 2; sum = 3 } ) ] }
  in
  Alcotest.(check bool) "healthy snapshot passes" true
    (Report.ok (run_obs_rules healthy))

(* --- determinism: tracing cannot change results --- *)

type fingerprint = {
  cost : float;
  schedule_length : float;
  members : int array;
  levels : int array;
  reexecs : int array;
  mapping : int array;
  explored : int;
}

let fingerprint = function
  | None -> None
  | Some (s : Design_strategy.solution) ->
      let r = s.Design_strategy.result in
      let d = r.Redundancy_opt.design in
      Some
        { cost = r.Redundancy_opt.cost;
          schedule_length = r.Redundancy_opt.schedule_length;
          members = d.Design.members;
          levels = d.Design.levels;
          reexecs = d.Design.reexecs;
          mapping = d.Design.mapping;
          explored = s.Design_strategy.explored }

let slack_policies =
  [ Scheduler.Shared; Scheduler.Conservative; Scheduler.Dedicated ]

let bus_policies = [ Bus.Fcfs; Bus.Tdma { slot_ms = 2.0 } ]

let test_tracing_is_invisible () =
  let problem = problem_of_seed 11 in
  List.iter
    (fun slack ->
      List.iter
        (fun bus ->
          let config = Config.(default |> with_slack slack |> with_bus bus) in
          let untraced = fingerprint (Design_strategy.run ~config problem) in
          let sink = Sink.memory () in
          let traced =
            with_spans ~sink ~aggregate:true (fun () ->
                fingerprint (Design_strategy.run ~config problem))
          in
          Alcotest.(check bool) "traced = untraced" true (traced = untraced);
          Alcotest.(check bool) "and the trace is not empty" true
            (Sink.memory_events sink <> []))
        bus_policies)
    slack_policies

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ftes_obs"
    [ ("clock", [ Alcotest.test_case "monotone" `Quick test_clock_monotone ]);
      ( "metrics",
        [ Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
          Alcotest.test_case "cross-domain merge" `Quick
            test_cross_domain_merge ] );
      ( "spans",
        [ q prop_span_nesting;
          Alcotest.test_case "disabled is transparent" `Quick
            test_span_disabled_is_transparent;
          Alcotest.test_case "disabled allocates nothing" `Quick
            test_span_disabled_allocates_nothing;
          Alcotest.test_case "exception safe" `Quick test_span_exception_safe;
          Alcotest.test_case "aggregates" `Quick test_span_aggregates ] );
      ( "trace",
        [ q prop_event_json_roundtrip;
          Alcotest.test_case "jsonl parses back" `Quick
            test_jsonl_trace_parses ] );
      ( "verify",
        [ Alcotest.test_case "live snapshot certifies" `Quick
            test_obs_rules_pass_live_snapshot;
          Alcotest.test_case "skipped without metrics" `Quick
            test_obs_rules_skip_without_metrics;
          Alcotest.test_case "mutations caught" `Quick
            test_obs_rule_mutations ] );
      ( "determinism",
        [ Alcotest.test_case "tracing is invisible" `Quick
            test_tracing_is_invisible ] ) ]
