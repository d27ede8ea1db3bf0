(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Fig. 6a-6d and the cruise-controller study) and runs the
   ablations documented in DESIGN.md.  Timing of the system itself is
   perfbench/'s job; the [time] lines here only say where a run went.

   Environment knobs:
     FTES_APPS    population size (default 150, the paper's)
     FTES_SEED    root seed (default 42)
     FTES_QUICK   set for a fast smoke run (40 apps, fewer trials)
     FTES_DOMAINS domains of the one shared pool (default: all cores)

   Every experiment runs on one pool; the determinism contract of
   Ftes_par makes the figures bit-identical to a one-domain run. *)

module Synthetic = Ftes_exp.Synthetic
module Figures = Ftes_exp.Figures
module Ablations = Ftes_exp.Ablations
module Csv = Ftes_util.Csv
module Pool = Ftes_par.Pool
module Metrics = Ftes_obs.Metrics
module Obs_report = Ftes_obs.Report

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
  | None -> default

let quick = Sys.getenv_opt "FTES_QUICK" <> None

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
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "[time] %s: %.1fs wall\n%!" name (Unix.gettimeofday () -. t0);
  r

let () =
  let pool = Pool.create () in
  Printf.printf
    "FTES benchmark harness: reproduction of Izosimov, Polian, Pop, Eles, \
     Peng,\n\
     \"Analysis and Optimization of Fault-Tolerant Embedded Systems with\n\
     Hardened Processors\" (DATE 2009).\n\
     population: %d applications (paper: 150), seed %d, %d domain(s)\n%!"
    apps seed (Pool.domains pool);

  let suite = Synthetic.create_suite ~pool ~count:apps ~seed () in

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
        Ablations.slack_ablation ~pool ~count:slack_count ~seed ())
  in
  print_string (Ablations.render_slack slack);

  section "Ablation: mapping optimization";
  let mapping =
    timed "mapping ablation" (fun () ->
        Ablations.mapping_ablation ~pool ~count:slack_count ~seed ())
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
        Ablations.optimism ~pool ~count:5 ~trials ~seed ())
  in
  print_string (Ablations.render_optimism optimism);

  (* Final metrics snapshot: every counter the instrumented hot paths
     accumulated across the whole harness run. *)
  ensure_results_dir ();
  let metrics_path = Filename.concat results_dir "metrics.csv" in
  Obs_report.write_metrics_csv metrics_path (Metrics.snapshot ());
  Printf.printf "[csv] wrote %s\n%!" metrics_path;
  print_endline "\nbench: done"
