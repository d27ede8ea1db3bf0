(* Campaign subsystem (sharded, checkpointed, resumable exploration):
   manifest round-trips, the sharded-merge = sequential bit-identity
   (across shard counts, including a kill/damage + resume cycle), the
   structured rejection of corrupted checkpoints, the plan a manifest
   derives once and shares across loads and domains, and the campaign/*
   and new obs/* verifier rule families. *)

module Manifest = Ftes_campaign.Manifest
module Checkpoint = Ftes_campaign.Checkpoint
module Runner = Ftes_campaign.Runner
module Merge = Ftes_campaign.Merge
module Config = Ftes_core.Config
module Workload = Ftes_gen.Workload
module Json = Ftes_util.Json
module Metrics = Ftes_obs.Metrics
module Verify = Ftes_verify.Verify
module Report = Ftes_verify.Report
module Subject = Ftes_verify.Subject

(* Campaign directories made by the running test; [cleaning] removes
   them when the test ends, also when it fails. *)
let created = ref []

let mk_dir () =
  let path = Filename.temp_file "ftes-campaign" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  created := path :: !created;
  path

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let cleaning (name, speed, f) =
  ( name,
    speed,
    fun () ->
      Fun.protect f ~finally:(fun () ->
          List.iter
            (fun dir -> if Sys.file_exists dir then remove_tree dir)
            !created;
          created := []) )

let mini ?(policies = [ Config.Fixed_min ]) ?(hpds = [ 0.25 ]) ?(apps = 6)
    ~shards () =
  Manifest.make ~sers:[ 1e-11 ] ~hpds ~policies ~apps ~seed:99 ~shards ()

let fresh_campaign ?policies ?hpds ?apps ~shards () =
  let manifest = mini ?policies ?hpds ?apps ~shards () in
  let dir = mk_dir () in
  Manifest.save ~dir manifest;
  (manifest, dir)

let ok_or_fail label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label e

let checkpoints_of ~manifest ~dir =
  List.init manifest.Manifest.shards (fun shard ->
      ok_or_fail "checkpoint" (Checkpoint.load ~manifest ~dir shard))

let merged_of ~manifest ~dir =
  ok_or_fail "merge"
    (Merge.of_checkpoints ~manifest (checkpoints_of ~manifest ~dir))

let cells_json merged =
  match Merge.to_json merged with
  | Json.Object fields -> Json.to_string (List.assoc "cells" fields)
  | _ -> assert false

(* --- manifest --- *)

let test_manifest_roundtrip () =
  let manifest =
    mini ~policies:[ Config.Fixed_min; Config.Optimize ] ~hpds:[ 0.05; 0.5 ]
      ~apps:10 ~shards:3 ()
  in
  let back = ok_or_fail "of_json" (Manifest.of_json (Manifest.to_json manifest)) in
  Alcotest.(check bool) "round-trips" true (Manifest.equal back manifest);
  let dir = mk_dir () in
  Manifest.save ~dir manifest;
  let loaded = ok_or_fail "load" (Manifest.load ~dir) in
  Alcotest.(check string) "fingerprint survives save/load"
    (Manifest.fingerprint manifest)
    (Manifest.fingerprint loaded);
  Alcotest.(check int) "cell grid" 4 (Manifest.n_cells manifest)

let test_manifest_validation () =
  let raises label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted" label
  in
  raises "shards > apps" (fun () -> mini ~apps:2 ~shards:3 ());
  raises "empty policies" (fun () -> mini ~policies:[] ~shards:1 ());
  raises "zero apps" (fun () -> mini ~apps:0 ~shards:1 ());
  raises "negative seed" (fun () ->
      Manifest.make ~apps:2 ~seed:(-5) ~shards:1 ());
  (* [of_json] refuses it too, with the constructor's message. *)
  let doc =
    match Manifest.to_json (mini ~apps:2 ~shards:1 ()) with
    | Json.Object fields ->
        Json.Object
          (List.map
             (fun (k, v) -> if k = "seed" then (k, Json.Number (-5.0)) else (k, v))
             fields)
    | json -> json
  in
  match Manifest.of_json doc with
  | Error e ->
      Alcotest.(check string) "of_json names the seed"
        "Manifest.make: seed must be >= 0" e
  | Ok _ -> Alcotest.fail "negative seed: of_json accepted"

let test_shard_partition () =
  let manifest = mini ~apps:10 ~shards:3 () in
  let ranges = List.init 3 (Manifest.shard_range manifest) in
  Alcotest.(check (list (pair int int)))
    "disjoint covering ranges"
    [ (0, 3); (3, 6); (6, 10) ]
    ranges;
  List.iteri
    (fun shard (lo, hi) ->
      let specs = Manifest.specs_for_shard manifest shard in
      Alcotest.(check int) "slice size" (hi - lo) (List.length specs);
      List.iteri
        (fun i spec ->
          Alcotest.(check int) "absolute index" (lo + i)
            spec.Workload.index)
        specs)
    ranges

(* --- merge = sequential, across shard counts --- *)

let test_merge_identity_across_shards () =
  let reference = ref None in
  List.iter
    (fun shards ->
      let manifest, dir = fresh_campaign ~apps:7 ~shards () in
      let summary = Runner.run_local ~manifest ~dir () in
      Alcotest.(check int) "no failed shards" 0 (List.length summary.Runner.failed);
      Alcotest.(check int) "every shard executed" shards summary.Runner.executed;
      let merged = merged_of ~manifest ~dir in
      let sequential = Merge.run_sequential ~manifest in
      Alcotest.(check bool)
        (Printf.sprintf "%d shards: merge equals sequential" shards)
        true
        (Merge.equal merged sequential);
      Alcotest.(check string)
        (Printf.sprintf "%d shards: fingerprints agree" shards)
        (Merge.fingerprint sequential) (Merge.fingerprint merged);
      (* The cell payloads are also identical across shard counts (the
         documents differ only in the embedded manifest fingerprint,
         which covers the shard count). *)
      let cells = cells_json merged in
      match !reference with
      | None -> reference := Some cells
      | Some expected ->
          Alcotest.(check string)
            (Printf.sprintf "%d shards: cells match 1-shard run" shards)
            expected cells)
    [ 1; 2; 4; 7 ]

let test_merge_identity_opt_cells () =
  let policies = [ Config.Fixed_min; Config.Optimize ] in
  let manifest, dir = fresh_campaign ~policies ~apps:4 ~shards:2 () in
  let summary = Runner.run_local ~manifest ~dir () in
  Alcotest.(check int) "no failed shards" 0 (List.length summary.Runner.failed);
  let merged = merged_of ~manifest ~dir in
  Alcotest.(check bool) "merge equals sequential (MIN + OPT cells)" true
    (Merge.equal merged (Merge.run_sequential ~manifest))

(* --- resume --- *)

let truncate_file path =
  let text =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin path in
  output_string oc (String.sub text 0 (String.length text / 2));
  close_out oc

let resume_prop (shards, victim, kind) =
  let manifest, dir = fresh_campaign ~shards () in
  let summary = Runner.run_local ~manifest ~dir () in
  let expected = Merge.fingerprint (merged_of ~manifest ~dir) in
  let victim = victim mod shards in
  let path = Checkpoint.path ~dir victim in
  (match kind with
  | `Delete -> Sys.remove path
  | `Truncate -> truncate_file path);
  let resumed = Runner.run_local ~manifest ~dir () in
  summary.Runner.failed = []
  && resumed.Runner.failed = []
  && resumed.Runner.skipped = shards - 1
  && resumed.Runner.executed = 1
  && Merge.fingerprint (merged_of ~manifest ~dir) = expected

let prop_resume_after_damage =
  QCheck.Test.make ~count:8
    ~name:
      "deleting or truncating a checkpoint, then resuming, re-runs only \
       that shard and reproduces the merged fingerprint"
    (QCheck.make
       ~print:(fun (shards, victim, kind) ->
         Printf.sprintf "shards %d, victim %d, %s" shards victim
           (match kind with `Delete -> "delete" | `Truncate -> "truncate"))
       QCheck.Gen.(
         triple (oneofl [ 2; 3; 6 ]) (0 -- 5) (oneofl [ `Delete; `Truncate ])))
    resume_prop

let test_partial_checkpoint_resume () =
  (* Two cells; a deliberate crash out of [on_cell] after the first cell
     leaves a valid partial checkpoint, which resume must salvage. *)
  let manifest, dir = fresh_campaign ~hpds:[ 0.05; 0.5 ] ~shards:2 () in
  let before = Metrics.snapshot () in
  let counter name snap =
    Option.value ~default:0 (Metrics.find_counter snap name)
  in
  (match
     Runner.run_shard
       ~on_cell:(fun ~cell_index ~n_cells:_ ->
         if cell_index = 0 then failwith "simulated kill")
       ~manifest ~dir 0
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "simulated kill did not propagate");
  (match Runner.scan ~manifest ~dir with
  | [| Runner.Partial c; Runner.Missing |] ->
      Alcotest.(check int) "one cell salvaged" 1
        (List.length c.Checkpoint.cells)
  | _ -> Alcotest.fail "expected a partial shard 0 and a missing shard 1");
  let summary = Runner.run_local ~manifest ~dir () in
  Alcotest.(check int) "no failures" 0 (List.length summary.Runner.failed);
  Alcotest.(check int) "both shards executed" 2 summary.Runner.executed;
  Alcotest.(check int) "one shard resumed" 1 summary.Runner.resumed;
  let after = Metrics.snapshot () in
  Alcotest.(check int) "campaign.shards_resumed counted" 1
    (counter "campaign.shards_resumed" after
    - counter "campaign.shards_resumed" before);
  (* 1 cell before the kill + 3 fresh on resume (1 salvaged of 4). *)
  Alcotest.(check int) "campaign.cells_done counts fresh cells only" 4
    (counter "campaign.cells_done" after - counter "campaign.cells_done" before);
  Alcotest.(check bool) "merge equals sequential after the crash cycle" true
    (Merge.equal (merged_of ~manifest ~dir) (Merge.run_sequential ~manifest))

(* --- real worker processes --- *)

(* The built CLI, at its place in the build tree next to this test's
   directory; test/dune declares it a dependency. *)
let ftes_exe =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "ftes.exe" ]

(* The CLI worker's deliberate mid-run kill: exit 130 inside [shard]
   after its first cell. *)
let with_planted_kill ~shard f =
  Unix.putenv "FTES_CAMPAIGN_KILL_AFTER" "1";
  Unix.putenv "FTES_CAMPAIGN_KILL_SHARD" (string_of_int shard);
  Fun.protect ~finally:(fun () -> Unix.putenv "FTES_CAMPAIGN_KILL_AFTER" "") f

(* A 4-shard campaign fanned out to [ftes campaign-worker] processes
   merges equal to the in-process sequential run; after a planted kill,
   resume skips exactly the shards already complete and merges equal
   again. *)
let test_worker_processes () =
  let shards = 4 in
  let manifest =
    Manifest.make ~sers:[ 1e-11 ] ~hpds:[ 0.25 ]
      ~policies:[ Config.Fixed_min; Config.Optimize ] ~apps:12 ~seed:42 ~shards
      ()
  in
  let sequential = Merge.run_sequential ~manifest in
  let campaign () =
    let dir = mk_dir () in
    Manifest.save ~dir manifest;
    dir
  in
  let run dir = Runner.run_processes ~jobs:2 ~exe:ftes_exe ~manifest ~dir () in
  let dir = campaign () in
  let summary = run dir in
  Alcotest.(check int) "sharded run: no failed shard" 0
    (List.length summary.Runner.failed);
  Alcotest.(check bool) "sharded merge = sequential" true
    (Merge.equal (merged_of ~manifest ~dir) sequential);
  let dir = campaign () in
  let killed = with_planted_kill ~shard:1 (fun () -> run dir) in
  Alcotest.(check bool) "the planted kill of shard 1 happened" true
    (List.mem_assoc 1 killed.Runner.failed);
  let resumed = run dir in
  Alcotest.(check int) "resume: no failed shard" 0
    (List.length resumed.Runner.failed);
  Alcotest.(check int) "resume skips exactly the complete shards"
    killed.Runner.executed resumed.Runner.skipped;
  Alcotest.(check bool) "resume re-runs fewer shards than the campaign has"
    true
    (resumed.Runner.executed < shards);
  Alcotest.(check string) "resumed merge = sequential"
    (Merge.fingerprint sequential)
    (Merge.fingerprint (merged_of ~manifest ~dir))

(* --- corrupted checkpoints are rejected, not crashed on --- *)

let read_doc path =
  let text =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.of_string text with
  | Ok json -> json
  | Error e -> Alcotest.failf "%s: %s" path e

let write_doc path json =
  let oc = open_out_bin path in
  output_string oc (Json.to_string json);
  output_string oc "\n";
  close_out oc

let map_field name f = function
  | Json.Object fields ->
      Json.Object
        (List.map (fun (k, v) -> if k = name then (k, f v) else (k, v)) fields)
  | json -> json

let set_field name v json = map_field name (fun _ -> v) json

let map_nth n f = function
  | Json.List items ->
      Json.List (List.mapi (fun i item -> if i = n then f item else item) items)
  | json -> json

let test_corrupt_checkpoint_rejected () =
  let manifest, dir = fresh_campaign ~shards:2 () in
  ignore (Runner.run_local ~manifest ~dir ());
  let path = Checkpoint.path ~dir 0 in
  let pristine = read_doc path in
  let expect_error label mutate =
    write_doc path (mutate pristine);
    (match Checkpoint.load ~manifest ~dir 0 with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: corrupted checkpoint accepted" label);
    match Runner.scan ~manifest ~dir with
    | [| Runner.Corrupt _; Runner.Complete _ |] -> ()
    | _ -> Alcotest.failf "%s: scan did not classify the shard corrupt" label
  in
  expect_error "alien fingerprint"
    (set_field "manifest_fingerprint" (Json.String "0123456789abcdef"));
  expect_error "unknown schema version"
    (set_field "schema_version" (Json.Number 99.0));
  expect_error "wrong shard range" (set_field "hi" (Json.Number 5.0));
  expect_error "truncated cost row"
    (map_field "cells"
       (map_nth 0
          (map_field "costs" (function
            | Json.List (_ :: rest) -> Json.List rest
            | costs -> costs))));
  expect_error "complete flag without the cells"
    (fun doc -> set_field "cells" (Json.List []) doc);
  (* Not JSON at all. *)
  let oc = open_out_bin path in
  output_string oc "{ definitely not json";
  close_out oc;
  (match Checkpoint.load ~manifest ~dir 0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  (* And the structured rejection composes with resume: the shard is
     simply recomputed. *)
  let summary = Runner.run_local ~manifest ~dir () in
  Alcotest.(check int) "corrupt shard recomputed" 1 summary.Runner.executed;
  Alcotest.(check int) "intact shard skipped" 1 summary.Runner.skipped

let test_out_of_range_point_rejected () =
  let manifest, dir = fresh_campaign ~shards:2 () in
  ignore (Runner.run_local ~manifest ~dir ());
  let path = Checkpoint.path ~dir 0 in
  let doc = read_doc path in
  let points_of doc =
    match doc with
    | Json.Object fields -> (
        match List.assoc "cells" fields with
        | Json.List (Json.Object cell :: _) -> (
            match List.assoc "points" cell with
            | Json.List points -> points
            | _ -> [])
        | _ -> [])
    | _ -> []
  in
  if points_of doc = [] then () (* nothing feasible to tamper with *)
  else begin
    write_doc path
      (map_field "cells"
         (map_nth 0
            (map_field "points"
               (map_nth 0 (set_field "app" (Json.Number 999.0)))))
         doc);
    match Checkpoint.load ~manifest ~dir 0 with
    | Error e ->
        Alcotest.(check bool) "names the range violation" true
          (String.length e > 0)
    | Ok _ -> Alcotest.fail "out-of-range application index accepted"
  end

(* --- the manifest's plan --- *)

let counter name =
  Option.value ~default:0 (Metrics.find_counter (Metrics.snapshot ()) name)

let checkpoint_text c = Json.to_string (Checkpoint.to_json c)

let state_text = function
  | Runner.Complete c -> "complete " ^ checkpoint_text c
  | Runner.Partial c -> "partial " ^ checkpoint_text c
  | Runner.Missing -> "missing"
  | Runner.Corrupt e -> "corrupt " ^ e

let scan_text ~manifest ~dir =
  Array.to_list (Array.map state_text (Runner.scan ~manifest ~dir))

(* A finished 3-shard, 4-cell campaign whose shard 0 lost its last
   cell, as a kill leaves it. *)
let plan_campaign () =
  let manifest, dir =
    fresh_campaign ~policies:[ Config.Fixed_min; Config.Fixed_max ]
      ~hpds:[ 0.05; 0.5 ] ~shards:3 ()
  in
  ignore (Runner.run_local ~manifest ~dir ());
  let c = ok_or_fail "load" (Checkpoint.load ~manifest ~dir 0) in
  Checkpoint.save ~dir
    { c with
      Checkpoint.cells = List.filteri (fun i _ -> i < 3) c.Checkpoint.cells;
      complete = false };
  (manifest, dir)

let test_plan_derived_once () =
  let _, dir = plan_campaign () in
  (* A freshly loaded manifest has derived no spec yet. *)
  let manifest = ok_or_fail "load" (Manifest.load ~dir) in
  let slices () =
    List.init manifest.Manifest.shards (Manifest.specs_for_shard manifest)
  in
  let before = counter "sched.schedules" in
  let first = scan_text ~manifest ~dir in
  let derived = counter "sched.schedules" in
  Alcotest.(check bool) "the first scan derives specs" true (derived > before);
  let first_slices = slices () in
  let all_derived = counter "sched.schedules" in
  let second = scan_text ~manifest ~dir in
  Alcotest.(check int) "a second scan derives no spec" all_derived
    (counter "sched.schedules");
  Alcotest.(check (list string)) "both scans agree" first second;
  Alcotest.(check bool) "the plan hands out the slices it derived" true
    (List.for_all2
       (List.for_all2 ( == ))
       first_slices (slices ()));
  Alcotest.(check int) "nor does asking for the slices again" all_derived
    (counter "sched.schedules")

let test_plan_shared_load_identical () =
  let manifest, dir = plan_campaign () in
  for shard = 0 to manifest.Manifest.shards - 1 do
    let fresh =
      ok_or_fail "of_json" (Manifest.of_json (Manifest.to_json manifest))
    in
    let expected =
      checkpoint_text
        (ok_or_fail "fresh load" (Checkpoint.load ~manifest:fresh ~dir shard))
    in
    (* Twice through the shared manifest: once deriving, once reading. *)
    for _ = 1 to 2 do
      Alcotest.(check string)
        (Printf.sprintf "shard %d: shared plan = fresh plan" shard)
        expected
        (checkpoint_text
           (ok_or_fail "shared load" (Checkpoint.load ~manifest ~dir shard)))
    done
  done;
  (match Runner.scan ~manifest ~dir with
  | [| Runner.Partial _; Runner.Complete _; Runner.Complete _ |] -> ()
  | _ -> Alcotest.fail "expected a partial shard 0 and two complete shards");
  (* Every (cell, application) problem of the plan, policy-shared ones
     included, is the one its spec expands to. *)
  List.iteri
    (fun index (key : Ftes_exp.Synthetic.cell_key) ->
      for shard = 0 to manifest.Manifest.shards - 1 do
        List.iter
          (fun (spec : Workload.app_spec) ->
            let expected =
              Workload.problem_of_spec ~params:manifest.Manifest.params
                { Workload.ser = key.Ftes_exp.Synthetic.ser;
                  hpd = key.Ftes_exp.Synthetic.hpd }
                spec
            in
            Alcotest.(check string)
              (Printf.sprintf "cell %d, app %d: plan problem" index
                 spec.Workload.index)
              (Ftes_model.Problem_io.to_string expected)
              (Ftes_model.Problem_io.to_string
                 (Manifest.problem manifest ~cell:index ~app:spec.Workload.index)))
          (Manifest.specs_for_shard manifest shard)
      done)
    (Manifest.cells manifest)

let test_plan_concurrent_scan () =
  let _, dir = plan_campaign () in
  let expected =
    scan_text ~manifest:(ok_or_fail "load" (Manifest.load ~dir)) ~dir
  in
  let shared = ok_or_fail "load" (Manifest.load ~dir) in
  let pool = Ftes_par.Pool.create ~domains:2 () in
  List.iteri
    (fun i got ->
      Alcotest.(check (list string))
        (Printf.sprintf "scan %d equals a sequential scan" i)
        expected got)
    (Ftes_par.Pool.map ~pool
       (fun () -> scan_text ~manifest:shared ~dir)
       [ (); (); (); () ])

(* --- campaign/* verifier rules --- *)

let subject_problem =
  lazy
    (let spec = Workload.generate_spec ~seed:7 ~index:0 ~n_processes:8 () in
     Workload.problem_of_spec { Workload.ser = 1e-11; hpd = 0.25 } spec)

let campaign_docs () =
  let manifest, dir = fresh_campaign ~shards:2 () in
  ignore (Runner.run_local ~manifest ~dir ());
  Merge.save ~dir (merged_of ~manifest ~dir);
  let manifest_doc = read_doc (Manifest.path ~dir) in
  let checkpoints =
    List.init 2 (fun shard ->
        ( Printf.sprintf "shard-%03d.json" shard,
          read_doc (Checkpoint.path ~dir shard) ))
  in
  let merged = read_doc (Filename.concat dir Merge.filename) in
  (manifest_doc, checkpoints, merged)

let run_campaign_rules ?merged ~manifest ~checkpoints () =
  Verify.run ~rules:Ftes_verify.Campaign_rules.all
    (Subject.with_campaign ?merged
       (Subject.of_problem (Lazy.force subject_problem))
       ~manifest ~checkpoints)

let fires rule report =
  List.exists
    (fun (d : Ftes_verify.Diagnostic.t) ->
      d.Ftes_verify.Diagnostic.rule = rule
      && d.Ftes_verify.Diagnostic.severity = Ftes_verify.Diagnostic.Error)
    report.Report.diagnostics

let docs = lazy (campaign_docs ())

let test_campaign_rules_pass () =
  let manifest, checkpoints, merged = Lazy.force docs in
  let report = run_campaign_rules ~merged ~manifest ~checkpoints () in
  Alcotest.(check bool)
    ("pristine campaign certifies:\n" ^ Report.to_text report)
    true (Report.ok report);
  Alcotest.(check int) "all five rules ran" 5
    (List.length report.Report.rules_run)

let test_campaign_rules_skip_without_docs () =
  let report =
    Verify.run ~rules:Ftes_verify.Campaign_rules.all
      (Subject.of_problem (Lazy.force subject_problem))
  in
  Alcotest.(check int) "all campaign rules skipped" 5
    (List.length report.Report.rules_skipped)

let test_campaign_rule_mutations () =
  let manifest, checkpoints, merged = Lazy.force docs in
  let check label rule report =
    Alcotest.(check bool)
      (label ^ " fires " ^ rule ^ ":\n" ^ Report.to_text report)
      true (fires rule report)
  in
  check "future manifest version" "campaign/manifest-schema"
    (run_campaign_rules ~merged
       ~manifest:(set_field "schema_version" (Json.Number 9.0) manifest)
       ~checkpoints ());
  check "zero-shard plan" "campaign/manifest-schema"
    (run_campaign_rules ~merged
       ~manifest:(set_field "shards" (Json.Number 0.0) manifest)
       ~checkpoints ());
  let mutate_checkpoint n f =
    List.mapi (fun i (label, doc) -> if i = n then (label, f doc) else (label, doc)) checkpoints
  in
  check "range drift" "campaign/shard-partition"
    (run_campaign_rules ~merged ~manifest
       ~checkpoints:(mutate_checkpoint 0 (set_field "hi" (Json.Number 5.0)))
       ());
  check "duplicate shard" "campaign/shard-partition"
    (run_campaign_rules ~merged ~manifest
       ~checkpoints:(mutate_checkpoint 1 (set_field "shard" (Json.Number 0.0)))
       ());
  check "missing shard under a merge" "campaign/shard-partition"
    (run_campaign_rules ~merged ~manifest
       ~checkpoints:[ List.hd checkpoints ] ());
  check "foreign fingerprint" "campaign/checkpoint-fingerprint"
    (run_campaign_rules ~merged ~manifest
       ~checkpoints:
         (mutate_checkpoint 0
            (set_field "manifest_fingerprint" (Json.String "feedfacecafebeef")))
       ());
  check "tampered merged costs" "campaign/merge-costs"
    (run_campaign_rules
       ~merged:
         (map_field "cells"
            (map_nth 0
               (map_field "costs" (function
                 | Json.List (_ :: rest) ->
                     Json.List (Json.Number 0.5 :: rest)
                 | costs -> costs)))
            merged)
       ~manifest ~checkpoints ());
  check "fabricated frontier point" "campaign/merge-frontier"
    (run_campaign_rules
       ~merged:
         (map_field "cells"
            (map_nth 0
               (map_field "frontier"
                  (map_field "points"
                     (map_nth 0 (set_field "cost" (Json.Number 1e6))))))
            merged)
       ~manifest ~checkpoints ())

(* --- the new obs/* rules --- *)

let run_obs_rules snapshot =
  Verify.run ~rules:Ftes_verify.Obs_rules.all
    (Subject.with_metrics (Subject.of_problem (Lazy.force subject_problem))
       snapshot)

let empty_snapshot = { Metrics.counters = []; gauges = []; histograms = [] }

let test_obs_rule_extensions () =
  let check label rule snapshot =
    let report = run_obs_rules snapshot in
    Alcotest.(check bool) (label ^ " fires " ^ rule) true (fires rule report)
  in
  check "merge offers exceed classified inserts" "obs/pareto-merge"
    { empty_snapshot with
      Metrics.counters =
        [ ("pareto.dominated", 1); ("pareto.inserted", 2);
          ("pareto.merge_points", 5) ] };
  check "resumed shards exceed completed" "obs/campaign-progress"
    { empty_snapshot with
      Metrics.counters =
        [ ("campaign.cells_done", 3); ("campaign.shards_done", 1);
          ("campaign.shards_resumed", 2) ] };
  check "shards outpace cells" "obs/campaign-progress"
    { empty_snapshot with
      Metrics.counters =
        [ ("campaign.cells_done", 1); ("campaign.shards_done", 2);
          ("campaign.shards_resumed", 0) ] };
  let healthy =
    { empty_snapshot with
      Metrics.counters =
        [ ("campaign.cells_done", 6); ("campaign.shards_done", 3);
          ("campaign.shards_resumed", 1); ("pareto.dominated", 4);
          ("pareto.inserted", 9); ("pareto.merge_points", 10) ] }
  in
  Alcotest.(check bool) "healthy snapshot passes" true
    (Report.ok (run_obs_rules healthy))

let test_live_counters_certify () =
  (* A real campaign's registry satisfies the audited inequalities. *)
  let manifest, dir = fresh_campaign ~shards:3 () in
  ignore (Runner.run_local ~manifest ~dir ());
  ignore (merged_of ~manifest ~dir);
  let report = run_obs_rules (Metrics.snapshot ()) in
  Alcotest.(check bool)
    ("live campaign snapshot certifies:\n" ^ Report.to_text report)
    true (Report.ok report)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ftes_campaign"
  @@ List.map (fun (group, cases) -> (group, List.map cleaning cases))
    [ ( "manifest",
        [ Alcotest.test_case "round-trip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "validation" `Quick test_manifest_validation;
          Alcotest.test_case "shard partition" `Quick test_shard_partition ] );
      ( "merge",
        [ Alcotest.test_case "bit-identical across shard counts" `Quick
            test_merge_identity_across_shards;
          Alcotest.test_case "bit-identical with OPT cells" `Quick
            test_merge_identity_opt_cells ] );
      ( "resume",
        [ q prop_resume_after_damage;
          Alcotest.test_case "partial checkpoint salvage" `Quick
            test_partial_checkpoint_resume;
          Alcotest.test_case "worker processes, kill and resume" `Slow
            test_worker_processes ] );
      ( "corruption",
        [ Alcotest.test_case "structured rejection" `Quick
            test_corrupt_checkpoint_rejected;
          Alcotest.test_case "out-of-range point" `Quick
            test_out_of_range_point_rejected ] );
      ( "plan",
        [ Alcotest.test_case "a second scan derives nothing" `Quick
            test_plan_derived_once;
          Alcotest.test_case "shared load = fresh load" `Quick
            test_plan_shared_load_identical;
          Alcotest.test_case "concurrent scans" `Quick
            test_plan_concurrent_scan ] );
      ( "rules",
        [ Alcotest.test_case "pristine campaign passes" `Quick
            test_campaign_rules_pass;
          Alcotest.test_case "skip without docs" `Quick
            test_campaign_rules_skip_without_docs;
          Alcotest.test_case "mutations" `Quick test_campaign_rule_mutations;
          Alcotest.test_case "obs extensions" `Quick test_obs_rule_extensions;
          Alcotest.test_case "live counters" `Quick test_live_counters_certify ] ) ]
