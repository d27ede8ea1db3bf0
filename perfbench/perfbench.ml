(* One workload per process, in rounds: each round sets the workload
   up afresh (timed) and runs whole op cycles on it for its share of
   --seconds.  Every result is checked, and the metrics are printed as
   one JSON object on the last line of stdout.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--record]

   --trace 0 prints the end-to-end metrics; --trace 1 then runs the
   last round's instance again with every op traced and prints the
   per-layer split.  --record rewrites the committed digests of the
   default seed.

   Correctness: every op's output digest must equal the digest of the
   same op in the first cycle and, on the default seed, the committed
   one; a verdict of "error" or "lint-failure" fails the op.  The
   deterministic counters of each set-up and of each cycle must equal
   those of the same set-up or cycle in the first round. *)

module Json = Ftes_util.Json
module Clock = Ftes_obs.Clock
module Metrics = Ftes_obs.Metrics
module Response = Ftes_driver.Response
module W = Workloads

let default_seed = 1

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--record]";
  exit 2

type args = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  record : bool;
}

let parse_args () =
  let rec go acc = function
    | "--workload" :: v :: rest -> go (("workload", v) :: acc) rest
    | "--seed" :: v :: rest -> go (("seed", v) :: acc) rest
    | "--seconds" :: v :: rest -> go (("seconds", v) :: acc) rest
    | "--trace" :: v :: rest -> go (("trace", v) :: acc) rest
    | "--record" :: rest -> go (("record", "1") :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload =
    match List.find_opt (fun w -> w.W.name = get "workload") W.all with
    | Some w -> w
    | None -> usage ()
  in
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  { workload;
    seed = int "seed";
    seconds = float_of_int seconds;
    trace = int "trace" <> 0;
    record = List.mem_assoc "record" kv }

(* --- statistics --- *)

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted pct =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (pct /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* --- counters --- *)

(* Counters whose value depends on the clock, not on the work. *)
let timing_counter name =
  String.ends_with ~suffix:"_ns" name || String.ends_with ~suffix:".ns" name
  || String.starts_with ~prefix:"span." name

let counters () =
  List.filter (fun (n, _) -> not (timing_counter n)) (Metrics.snapshot ()).Metrics.counters

let diff before after =
  List.map
    (fun (n, v) -> (n, v - Option.value ~default:0 (List.assoc_opt n before)))
    after

(* --- the measured loop --- *)

(* This shared host slows by up to 3x for seconds to tens of seconds
   at a time, and whole runs can fall in a slow phase.  So the cycle is
   split into chunks of consecutive ops, and the run keeps, per chunk,
   the op times of its fastest repetition: the one the host disturbed
   least.  A chunk allocates about seven minor heaps or more
   ({!Workloads.t.chunk}), so every repetition of it pays its share of
   minor and major GC work: what is dropped is the host's interference,
   not the program's own costs.
   The kept op times form one composite cycle, which the end-to-end
   metrics describe. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable drifts : int;
  mutable total_ms : float;  (** every op of every cycle. *)
  chunk : int;  (** ops per chunk. *)
  best_chunk_ms : float array;  (** per chunk: its fastest repetition. *)
  best_op_ms : float array;  (** per op: its time in that repetition. *)
  digests : string option array;  (** per op: from its first run. *)
}

let new_tally ~chunk n =
  { attempted = 0; failed = 0; drifts = 0; total_ms = 0.0; chunk;
    best_chunk_ms = Array.make ((n + chunk - 1) / chunk) infinity;
    best_op_ms = Array.make n 0.0;
    digests = Array.make n None }

let run_cycle t (inst : W.instance) ~expected ~tracer =
  let n = inst.W.n_ops in
  let times = Array.make n 0.0 in
  for k = 0 to n - 1 do
    let start = Clock.now_ns () in
    let r =
      match tracer with
      | None -> inst.W.op k
      | Some acc -> Trace.traced acc (fun () -> inst.W.op k)
    in
    times.(k) <- Clock.ns_to_ms (Clock.now_ns () - start);
    t.attempted <- t.attempted + 1;
    if t.digests.(k) = None then t.digests.(k) <- Some r.W.digest;
    let want =
      match expected with Some e -> Some e.(k) | None -> t.digests.(k)
    in
    let bad_verdict =
      r.W.verdict = Response.verdict_name Response.Failed
      || r.W.verdict = Response.verdict_name Response.Lint_failure
    in
    if bad_verdict || Some r.W.digest <> want then t.failed <- t.failed + 1
  done;
  for c = 0 to Array.length t.best_chunk_ms - 1 do
    let lo = c * t.chunk in
    let len = min t.chunk (n - lo) in
    let ms = Array.fold_left ( +. ) 0.0 (Array.sub times lo len) in
    t.total_ms <- t.total_ms +. ms;
    if ms < t.best_chunk_ms.(c) then begin
      t.best_chunk_ms.(c) <- ms;
      Array.blit times lo t.best_op_ms lo len
    end
  done

(* The counts of a piece of work must equal those of the same piece in
   an earlier round: the first to reach it records them. *)
let check_counts t refs key counts =
  match Hashtbl.find_opt refs key with
  | None -> Hashtbl.replace refs key counts
  | Some stored when stored = counts -> ()
  | Some stored ->
      t.drifts <- t.drifts + 1;
      let changed =
        List.filter_map
          (fun (n, v) ->
            let s = Option.value ~default:0 (List.assoc_opt n stored) in
            if s = v then None else Some (Printf.sprintf "%s %d -> %d" n s v))
          counts
      in
      Printf.eprintf "perfbench: exact counts drifted in %s: %s\n%!" key
        (String.concat ", " changed)

type measured = {
  tally : tally;
  setups_s : float list;
  setup_steps_s : float array;  (** per set-up step: its fastest round. *)
  first_counts : (string * int) list;  (** first cycle of the first round. *)
  first_major_gcs : int;
  last : W.instance;  (** the last round's instance, still open. *)
}

(* [rounds] rounds, each on a fresh instance: set up (timed), then run
   whole cycles for its share of [seconds].  Set-ups and cycles are
   thereby spread over the whole run, and every round repeats the work
   of the first from cold caches, so its counts must repeat exactly. *)
let measure (w : W.t) ~seed ~seconds ~expected ~setup_acc =
  let tally = ref None and last = ref None in
  let setups = ref [] and first_counts = ref [] and first_major_gcs = ref 0 in
  let best_steps = ref [||] in
  let refs = Hashtbl.create 64 in
  let share_ns = int_of_float (seconds /. float_of_int w.W.rounds *. 1e9) in
  for round = 1 to w.W.rounds do
    Option.iter (fun (i : W.instance) -> i.W.close ()) !last;
    last := None;
    Gc.compact ();
    let before = counters () in
    let t0 = Clock.now_ns () in
    let steps = ref [] and step_start = ref t0 in
    let mark () =
      let now = Clock.now_ns () in
      steps := Clock.ns_to_s (now - !step_start) :: !steps;
      step_start := now
    in
    let inst =
      match setup_acc with
      | Some acc when round = w.W.rounds ->
          Trace.traced acc (fun () -> w.W.setup ~seed ~mark)
      | _ -> w.W.setup ~seed ~mark
    in
    mark ();
    setups := Clock.ns_to_s (Clock.now_ns () - t0) :: !setups;
    let steps = Array.of_list (List.rev !steps) in
    if round = 1 then best_steps := steps
    else if Array.length steps = Array.length !best_steps then
      best_steps := Array.map2 Float.min !best_steps steps
    else failwith "perfbench: the set-up took a different number of steps";
    let t =
      match !tally with Some t -> t | None -> new_tally ~chunk:w.W.chunk inst.W.n_ops
    in
    tally := Some t;
    check_counts t refs "set-up" (diff before (counters ()));
    (* Every round's cycles start from a heap without set-up garbage. *)
    Gc.compact ();
    let deadline = Clock.now_ns () + share_ns in
    let k = ref 0 in
    while !k = 0 || Clock.now_ns () < deadline do
      let before = counters () in
      let gcs = (Gc.quick_stat ()).Gc.major_collections in
      run_cycle t inst ~expected ~tracer:None;
      let counts = diff before (counters ()) in
      check_counts t refs (Printf.sprintf "cycle %d" (!k + 1)) counts;
      if round = 1 && !k = 0 then begin
        first_counts := counts;
        first_major_gcs := (Gc.quick_stat ()).Gc.major_collections - gcs
      end;
      incr k
    done;
    last := Some inst
  done;
  { tally = Option.get !tally;
    setups_s = !setups;
    setup_steps_s = !best_steps;
    first_counts = !first_counts;
    first_major_gcs = !first_major_gcs;
    last = Option.get !last }

(* --- committed digests --- *)

let expected_path name = Filename.concat "perfbench" (Filename.concat "expected" (name ^ ".json"))

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let load_digests name =
  let path = expected_path name in
  if not (Sys.file_exists path) then None
  else
    match Json.of_string (read_file path) with
    | Ok json -> (
        match Result.bind (Json.member "digests" json) Json.to_list with
        | Ok l ->
            Some
              (Array.of_list
                 (List.map
                    (fun j -> Result.value ~default:"" (Json.to_string_value j))
                    l))
        | Error _ -> None)
    | Error _ -> None

let save_digests name ~seed digests =
  write_file (expected_path name)
    (Json.to_string
       (Json.Object
          [ ("workload", Json.String name);
            ("seed", Json.Number (float_of_int seed));
            ( "digests",
              Json.List (Array.to_list (Array.map (fun d -> Json.String d) digests)) ) ])
    ^ "\n")

(* --- output --- *)

let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> None
            | Some line when String.starts_with ~prefix:"VmHWM:" line ->
                Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
            | Some _ -> go ()
          in
          go ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

let metric name unit value = (name, value, unit)

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, value, unit) -> Printf.printf "  %-34s %14.4f %s\n" name value unit)
    metrics;
  let json =
    Json.Object
      [ ("correct", Json.Bool correct);
        ("attempted", Json.Number (float_of_int attempted));
        ("failed", Json.Number (float_of_int failed));
        ( "metrics",
          Json.Object
            (List.map
               (fun (name, value, unit) ->
                 (name, Json.Object [ ("value", Json.Number value); ("unit", Json.String unit) ]))
               metrics) ) ]
  in
  print_string (Json.to_string ~minify:true json);
  print_newline ()

let count counts name = Option.value ~default:0 (List.assoc_opt name counts)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let layer_metrics ~ops ~wall_ms counts ~major_gcs ~acc ~shadow_acc ~trace_overhead ~setup_acc =
  let c = count counts in
  let per_op x = x /. ops in
  let attributed_ms = float_of_int acc.Trace.root_ns *. 1e-6 in
  let layer_ms l = Trace.self_ms acc l +. Trace.self_ms shadow_acc l in
  let times =
    List.concat_map
      (fun l ->
        if l = "gen.population" || l = "model.encode" then
          [ metric (l ^ "_ms") "ms" (Trace.self_ms setup_acc l);
            metric (l ^ "_alloc_mb") "MB" (Trace.self_alloc_mb setup_acc l) ]
        else
          [ metric (l ^ "_ms") "ms/op" (per_op (layer_ms l));
            metric (l ^ "_alloc_mb") "MB/op"
              (per_op (Trace.self_alloc_mb acc l +. Trace.self_alloc_mb shadow_acc l)) ])
      Trace.layer_names
  in
  let top, top_ms =
    List.fold_left
      (fun (bl, bms) l ->
        let ms = Trace.self_ms acc l in
        if ms > bms then (l, ms) else (bl, bms))
      ("none", 0.0)
      (List.filter (fun l -> l <> "gen.population" && l <> "model.encode") Trace.layer_names)
  in
  Printf.printf "  top layer: %s (%.1f%% of op wall time)\n" top (100.0 *. top_ms /. wall_ms);
  times
  @ [ metric "op_wall_ms" "ms/op" (per_op wall_ms);
      metric "unattributed_ms" "ms/op" (per_op (wall_ms -. attributed_ms));
      metric "top_layer_share" "ratio" (top_ms /. wall_ms);
      metric "obs.trace_overhead" "ratio" trace_overhead;
      metric "core.evaluations" "count" (float_of_int (c "evals.fresh"));
      metric "core.architectures" "count" (float_of_int (c "strategy.explored"));
      metric "sched.schedules" "count" (float_of_int (c "sched.schedules"));
      metric "sfp.node_tables" "count" (float_of_int (c "sfp.node_tables"));
      metric "sfp.cache_hits" "count" (float_of_int (c "sfp_cache.hits"));
      metric "sfp.cache_misses" "count" (float_of_int (c "sfp_cache.misses"));
      metric "sfp.cache_hit_ratio" "ratio"
        (ratio (c "sfp_cache.hits") (c "sfp_cache.hits" + c "sfp_cache.misses"));
      metric "core.eval_hits" "count" (float_of_int (c "evals.hits"));
      metric "core.eval_misses" "count" (float_of_int (c "evals.misses"));
      metric "core.eval_hit_ratio" "ratio"
        (ratio (c "evals.hits") (c "evals.hits" + c "evals.misses"));
      metric "driver.payload_bytes" "bytes" (float_of_int (c "bench.payload_bytes"));
      metric "driver.registry_hit_ratio" "ratio"
        (ratio (c "bench.bucket_hits") (c "bench.bucket_hits" + c "bench.bucket_misses"));
      metric "whatif.sfp_kept_ratio" "ratio"
        (ratio (c "bench.whatif_sfp_kept")
           (c "bench.whatif_sfp_kept" + c "bench.whatif_sfp_dropped"));
      metric "whatif.evals_kept_ratio" "ratio"
        (ratio (c "bench.whatif_evals_kept")
           (c "bench.whatif_evals_kept" + c "bench.whatif_evals_dropped"));
      metric "whatif.trail_replay_ratio" "ratio"
        (ratio (c "bench.whatif_steps_replayed") (c "bench.whatif_steps_total"));
      metric "campaign.checkpoint_bytes" "bytes" (float_of_int (c "bench.checkpoint_bytes"));
      metric "campaign.checkpoint_writes" "count" (float_of_int (c "bench.checkpoint_writes"));
      metric "gc.major_collections" "count" (float_of_int major_gcs) ]

let () =
  let args = parse_args () in
  let w = args.workload in
  let committed =
    if args.seed = default_seed && not args.record then load_digests w.W.name else None
  in
  let setup_acc = Trace.create () in
  let m =
    measure w ~seed:args.seed ~seconds:args.seconds ~expected:committed
      ~setup_acc:(if args.trace then Some setup_acc else None)
  in
  let t = m.tally and inst = m.last in
  let n_ops = inst.W.n_ops in
  if committed <> None && Option.map Array.length committed <> Some n_ops then begin
    Printf.eprintf "perfbench: committed digests do not match the op cycle\n%!";
    t.failed <- t.failed + 1
  end;
  if args.record then
    save_digests w.W.name ~seed:args.seed (Array.map (Option.value ~default:"") t.digests);
  Printf.printf "%s seed %d: %d ops (%d cycles of %d in %d rounds), %d failed%s\n" w.W.name
    args.seed t.attempted (t.attempted / n_ops) n_ops w.W.rounds t.failed
    (if committed = None then "" else ", digests checked against the committed ones");
  Printf.printf "set-ups: %s s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") m.setups_s));
  if t.drifts > 0 then Printf.printf "exact counts drifted %d times\n" t.drifts;
  if not args.trace then begin
    inst.W.close ();
    print_result ~correct:(t.failed = 0 && t.drifts = 0) ~attempted:t.attempted
      ~failed:t.failed
      (let sorted = Array.copy t.best_op_ms in
       Array.sort compare sorted;
       [ metric "ops_per_s" "1/s"
           (float_of_int n_ops /. (Array.fold_left ( +. ) 0.0 t.best_chunk_ms /. 1000.0));
         metric "op_p50_ms" "ms" (percentile sorted 50.0);
         metric "op_tail_ms" "ms" (percentile sorted w.W.tail_pct);
         (* Each step of the set-up is kept like a chunk: its fastest
            repetition. *)
         metric "setup_s" "s" (Array.fold_left ( +. ) 0.0 m.setup_steps_s);
         metric "peak_rss_mb" "MB" (peak_rss_mb ()) ])
  end
  else begin
    (* The same instance again, every op under the tracer, checked
       against the untraced digests. *)
    let expected = Array.map (Option.value ~default:"") t.digests in
    let traced = new_tally ~chunk:w.W.chunk n_ops in
    let acc = Trace.create () and shadow_acc = Trace.create () in
    let deadline = Clock.now_ns () + int_of_float (args.seconds /. 2.0 *. 1e9) in
    while traced.attempted = 0 || Clock.now_ns () < deadline do
      run_cycle traced inst ~expected:(Some expected) ~tracer:(Some acc)
    done;
    Option.iter
      (fun shadow ->
        for k = 0 to traced.attempted - 1 do
          Trace.traced shadow_acc (fun () -> shadow (k mod n_ops))
        done)
      inst.W.shadow;
    inst.W.close ();
    let mean_op_ms t = t.total_ms /. float_of_int t.attempted in
    let failed = t.failed + traced.failed in
    print_result ~correct:(failed = 0 && t.drifts = 0)
      ~attempted:(t.attempted + traced.attempted) ~failed
      (layer_metrics ~ops:(float_of_int traced.attempted) ~wall_ms:traced.total_ms
         m.first_counts ~major_gcs:m.first_major_gcs ~acc ~shadow_acc
         ~trace_overhead:((mean_op_ms traced /. mean_op_ms t) -. 1.0)
         ~setup_acc)
  end
