(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Fig. 6a-6d and the cruise-controller study), runs the
   ablations documented in DESIGN.md, and finishes with Bechamel
   micro-benchmarks of the analysis / scheduling / optimization kernels.

   Environment knobs:
     FTES_APPS       population size (default 150, the paper's)
     FTES_SEED       root seed (default 42)
     FTES_SKIP_MICRO set to skip the Bechamel micro-benchmarks
     FTES_QUICK      set for a fast smoke run (40 apps, fewer trials) *)

module Synthetic = Ftes_exp.Synthetic
module Figures = Ftes_exp.Figures
module Ablations = Ftes_exp.Ablations
module Csv = Ftes_util.Csv
module Config = Ftes_core.Config
module Redundancy_opt = Ftes_core.Redundancy_opt
module Workload = Ftes_gen.Workload
module Pool = Ftes_par.Pool
module Sfp_cache = Ftes_par.Sfp_cache
module Span = Ftes_obs.Span
module Sink = Ftes_obs.Sink
module Metrics = Ftes_obs.Metrics
module Obs_report = Ftes_obs.Report

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
  | None -> default

let env_flag name = Sys.getenv_opt name <> None

let quick = env_flag "FTES_QUICK"

let apps = env_int "FTES_APPS" (if quick then 40 else 150)

let seed = env_int "FTES_SEED" 42

let results_dir = "results"

(* mkdir first and treat EEXIST as success: the old exists-then-create
   sequence raced against concurrent harness invocations sharing one
   results directory. *)
let ensure_results_dir () =
  try Sys.mkdir results_dir 0o755 with Sys_error _ -> ()

let save_csv name rows =
  ensure_results_dir ();
  let path = Filename.concat results_dir name in
  Csv.write_file path rows;
  Printf.printf "[csv] wrote %s\n%!" path

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let timed name f =
  let t0 = Sys.time () in
  let r = f () in
  Printf.printf "[time] %s: %.1fs\n%!" name (Sys.time () -. t0);
  r

let walled f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Sequential-vs-parallel comparison of one OPT experiment cell: the
   same applications on one domain and on at least two.  The
   per-application costs must match bit for bit; wall times, the
   evaluation counts and the cache hit rates of the parallel run land
   in bench_par.csv.  (That memoization itself never changes a result
   is property-tested in test/test_par.ml against caches of capacity
   0.) *)
let bench_parallel ~apps ~seed =
  let specs = Workload.paper_suite ~count:apps ~seed () in
  let key =
    { Synthetic.ser = 1e-11; hpd = 0.25; policy = Config.Optimize }
  in
  Redundancy_opt.reset_eval_stats ();
  let seq, seq_s =
    walled (fun () -> Synthetic.run_cell ~config:Config.default ~specs key)
  in
  let seq_fresh = (Redundancy_opt.eval_stats ()).Redundancy_opt.fresh in
  let domains = max 2 (Pool.default_domains ()) in
  let pool = Pool.create ~domains () in
  Sfp_cache.reset_totals ();
  Redundancy_opt.reset_eval_stats ();
  let par, par_s =
    walled (fun () ->
        Synthetic.run_cell ~pool ~config:Config.default ~specs key)
  in
  let sfp = Sfp_cache.totals () in
  let evals = Redundancy_opt.eval_stats () in
  let identical = seq.Synthetic.costs = par.Synthetic.costs in
  let speedup = if par_s > 0.0 then seq_s /. par_s else 0.0 in
  Printf.printf
    "apps %d, domains %d (host: %d recommended)\n\
     1 domain:   %.2fs wall, %d evaluations\n\
     %d domains:  %.2fs wall (%.2fx), %d evaluations\n\
     per-app costs identical: %b\n\
     SFP cache: %d hits / %d misses (%.1f%% hit rate)\n\
     eval cache: %d hits / %d misses\n%!"
    apps domains
    (Domain.recommended_domain_count ())
    seq_s seq_fresh domains par_s speedup evals.Redundancy_opt.fresh
    identical sfp.Sfp_cache.total_hits sfp.Sfp_cache.total_misses
    (100.0 *. Sfp_cache.hit_rate sfp)
    evals.Redundancy_opt.hits evals.Redundancy_opt.misses;
  if Domain.recommended_domain_count () < 2 then
    print_endline
      "note: single-core host — the multi-domain run can only measure \
       synchronization overhead.";
  if not identical then
    failwith "bench: parallel run diverged from the sequential baseline";
  save_csv "bench_par.csv"
    [ [ "workload"; "apps"; "domains"; "seq_s"; "par_s"; "speedup";
        "seq_evals"; "par_evals"; "identical"; "sfp_hits"; "sfp_misses";
        "sfp_hit_rate"; "eval_hits"; "eval_misses" ];
      [ "synthetic-opt-cell";
        string_of_int apps;
        string_of_int domains;
        Printf.sprintf "%.4f" seq_s;
        Printf.sprintf "%.4f" par_s;
        Printf.sprintf "%.2f" speedup;
        string_of_int seq_fresh;
        string_of_int evals.Redundancy_opt.fresh;
        string_of_bool identical;
        string_of_int sfp.Sfp_cache.total_hits;
        string_of_int sfp.Sfp_cache.total_misses;
        Printf.sprintf "%.4f" (Sfp_cache.hit_rate sfp);
        string_of_int evals.Redundancy_opt.hits;
        string_of_int evals.Redundancy_opt.misses ] ]

(* Observability overhead on one quick OPT cell.

   An uninstrumented in-process baseline no longer exists, so the null
   path is costed directly: the per-call price of a disabled
   [Span.with_] comes from a micro-loop, and the implied overhead of
   the instrumentation on the cell is (spans completed x that price) /
   untraced wall time.  The fully-aggregated run is also timed, and the
   per-application costs of both runs must match bit for bit — tracing
   only observes. *)
let bench_obs ~apps ~seed =
  let iters = 2_000_000 in
  let work () = Sys.opaque_identity 1 in
  let (), bare_s =
    walled (fun () -> for _ = 1 to iters do ignore (work ()) done)
  in
  let (), spanned_s =
    walled (fun () ->
        for _ = 1 to iters do
          ignore (Span.with_ ~name:"bench/noop" work)
        done)
  in
  let per_call_ns =
    max 0.0 (1e9 *. (spanned_s -. bare_s) /. float_of_int iters)
  in
  let specs = Workload.paper_suite ~count:apps ~seed () in
  let key = { Synthetic.ser = 1e-11; hpd = 0.25; policy = Config.Optimize } in
  let untraced, untraced_s =
    walled (fun () -> Synthetic.run_cell ~config:Config.default ~specs key)
  in
  Metrics.reset ();
  Span.configure ~aggregate:true ();
  let traced, traced_s =
    walled (fun () -> Synthetic.run_cell ~config:Config.default ~specs key)
  in
  Span.disable ();
  let snap = Metrics.snapshot () in
  let spans =
    List.fold_left
      (fun acc (name, v) ->
        if
          String.starts_with ~prefix:Span.span_prefix name
          && Filename.check_suffix name ".count"
        then acc + v
        else acc)
      0 snap.Metrics.counters
  in
  let null_overhead_pct =
    100.0 *. float_of_int spans *. per_call_ns /. (untraced_s *. 1e9)
  in
  let traced_overhead_pct = 100.0 *. (traced_s /. untraced_s -. 1.0) in
  let identical = untraced.Synthetic.costs = traced.Synthetic.costs in
  Printf.printf
    "disabled span: %.1f ns/call (over %d calls)\n\
     quick OPT cell: %.2fs untraced, %d spans completed when aggregated\n\
     implied null-sink overhead: %.3f%% of the cell\n\
     aggregated-run overhead:    %.1f%% wall (%.2fs)\n\
     per-app costs identical traced vs untraced: %b\n%!"
    per_call_ns iters untraced_s spans null_overhead_pct traced_overhead_pct
    traced_s identical;
  if not identical then
    failwith "bench_obs: tracing changed the optimizer's results";
  if null_overhead_pct >= 3.0 then
    failwith
      (Printf.sprintf
         "bench_obs: null-sink overhead %.2f%% breaches the 3%% budget"
         null_overhead_pct);
  save_csv "bench_obs.csv"
    [ [ "apps"; "per_call_ns"; "spans"; "untraced_s"; "traced_s";
        "null_overhead_pct"; "traced_overhead_pct"; "identical" ];
      [ string_of_int apps;
        Printf.sprintf "%.2f" per_call_ns;
        string_of_int spans;
        Printf.sprintf "%.4f" untraced_s;
        Printf.sprintf "%.4f" traced_s;
        Printf.sprintf "%.4f" null_overhead_pct;
        Printf.sprintf "%.2f" traced_overhead_pct;
        string_of_bool identical ] ]

let () =
  Printf.printf
    "FTES benchmark harness: reproduction of Izosimov, Polian, Pop, Eles, \
     Peng,\n\
     \"Analysis and Optimization of Fault-Tolerant Embedded Systems with\n\
     Hardened Processors\" (DATE 2009).\n\
     population: %d applications (paper: 150), seed %d\n%!"
    apps seed;
  section "Parallel + memoized exploration";
  bench_parallel ~apps:(if quick then 8 else 24) ~seed;

  section "Observability overhead";
  bench_obs ~apps:(if quick then 8 else 24) ~seed;

  let suite = Synthetic.create_suite ~count:apps ~seed () in

  section "Fig. 6a — acceptance vs hardening performance degradation";
  let fig6a = timed "fig6a" (fun () -> Figures.fig6a suite) in
  print_string (Figures.render fig6a);
  save_csv "fig6a.csv" (Figures.to_csv fig6a);

  section "Fig. 6b — acceptance for ArC in {15, 20, 25}";
  let fig6b = timed "fig6b" (fun () -> Figures.fig6b suite) in
  List.iter
    (fun artifact ->
      print_string (Figures.render artifact);
      print_newline ();
      save_csv (artifact.Figures.id ^ ".csv") (Figures.to_csv artifact))
    fig6b;

  section "Fig. 6c — acceptance vs soft error rate (HPD = 5%)";
  let fig6c = timed "fig6c" (fun () -> Figures.fig6c suite) in
  print_string (Figures.render fig6c);
  save_csv "fig6c.csv" (Figures.to_csv fig6c);

  section "Fig. 6d — acceptance vs soft error rate (HPD = 100%)";
  let fig6d = timed "fig6d" (fun () -> Figures.fig6d suite) in
  print_string (Figures.render fig6d);
  save_csv "fig6d.csv" (Figures.to_csv fig6d);

  section "Cruise-controller case study";
  let cc = timed "cc" (fun () -> Figures.cc_study ()) in
  print_string (Figures.render_cc cc);

  section "Ablation: recovery-slack policy";
  let slack_count = if quick then 16 else 40 in
  let slack =
    timed "slack ablation" (fun () ->
        Ablations.slack_ablation ~count:slack_count ~seed ())
  in
  print_string (Ablations.render_slack slack);

  section "Ablation: mapping optimization";
  let mapping =
    timed "mapping ablation" (fun () ->
        Ablations.mapping_ablation ~count:slack_count ~seed ())
  in
  print_string (Ablations.render_mapping mapping);

  section "Ablation: exact SFP analysis vs closed-form bound";
  let bound =
    timed "bound ablation" (fun () ->
        Ablations.bound_ablation ~count:(if quick then 10 else 30) ~seed ())
  in
  print_string (Ablations.render_bound bound);

  section "Ablation: heuristic vs exhaustive optimum";
  let gap =
    timed "optimality gap" (fun () ->
        Ablations.optimality_gap ~count:(if quick then 6 else 12) ~seed ())
  in
  print_string (Ablations.render_gap gap);

  section "Ablation: software-redundancy policy";
  let policy =
    timed "retry policy" (fun () ->
        Ablations.retry_policy_comparison ~count:slack_count ~seed ())
  in
  print_string (Ablations.render_policy policy);

  section "Extension: checkpointed recovery";
  let checkpoint =
    timed "checkpoint ablation" (fun () ->
        Ablations.checkpoint_ablation ~count:(if quick then 10 else 30) ~seed ())
  in
  print_string (Ablations.render_checkpoint checkpoint);

  section "Exact worst case vs the schedule bounds";
  let exact =
    timed "exact worst case" (fun () ->
        Ablations.exact_worst_case ~count:(if quick then 4 else 8) ~seed ())
  in
  print_string (Ablations.render_exact exact);

  section "Runtime scaling";
  let runtime =
    timed "runtime study" (fun () ->
        Ablations.runtime_study ~per_size:(if quick then 2 else 5) ~seed ())
  in
  print_string (Ablations.render_runtime runtime);

  section "Fault-injection validation of the SFP analysis";
  let trials = if quick then 5_000 else 20_000 in
  let optimism =
    timed "fault injection" (fun () ->
        Ablations.optimism ~count:5 ~trials ~seed ())
  in
  print_string (Ablations.render_optimism optimism);

  if env_flag "FTES_SKIP_MICRO" then
    print_endline "\n(micro-benchmarks skipped: FTES_SKIP_MICRO set)"
  else begin
    section "Bechamel micro-benchmarks";
    Micro.run ()
  end;

  (* Final metrics snapshot: every counter the instrumented hot paths
     accumulated across the whole harness run. *)
  ensure_results_dir ();
  let metrics_path = Filename.concat results_dir "metrics.csv" in
  Obs_report.write_metrics_csv metrics_path (Metrics.snapshot ());
  Printf.printf "[csv] wrote %s\n%!" metrics_path;
  print_endline "\nbench: done"
