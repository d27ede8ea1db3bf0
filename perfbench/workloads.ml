(* The workloads.  Each is a closed loop with one caller on one
   OCaml domain: set-up builds a fixed, seeded cycle of ops, and the
   measurement runs that cycle over and over.  Every op goes through
   public library functions only, wrapped in the benchmark's own spans
   (free while tracing is off).  README.md says which layers each
   workload loads or bypasses, and why.

   The problem instances and op parameters come from one fixed
   population seed; the workload seed orders the ops (and so the cache
   states each op meets).  Every seed therefore asks for the same
   amount of work, and the spread between runs of different seeds is
   the host's, not the inputs'. *)

module Json = Ftes_util.Json
module Prng = Ftes_util.Prng
module Fingerprint = Ftes_util.Fingerprint
module Span = Ftes_obs.Span
module Metrics = Ftes_obs.Metrics
module Problem = Ftes_model.Problem
module Application = Ftes_model.Application
module Platform = Ftes_model.Platform
module Workload = Ftes_gen.Workload
module Scheduler = Ftes_sched.Scheduler
module Bus = Ftes_sched.Bus
module Config = Ftes_core.Config
module Pool = Ftes_par.Pool
module Objective = Ftes_pareto.Objective
module Delta = Ftes_whatif.Delta
module Reuse = Ftes_whatif.Reuse
module Request = Ftes_driver.Request
module Response = Ftes_driver.Response
module Daemon = Ftes_driver.Daemon
module Manifest = Ftes_campaign.Manifest
module Checkpoint = Ftes_campaign.Checkpoint
module Runner = Ftes_campaign.Runner
module Merge = Ftes_campaign.Merge

type result = {
  digest : string;  (** fingerprint of the op's deterministic output. *)
  verdict : string;  (** {!Response.verdict_name} spelling. *)
}

type instance = {
  n_ops : int;  (** ops in one cycle. *)
  op : int -> result;  (** run op [k] of the cycle, [0 <= k < n_ops]. *)
  shadow : (int -> unit) option;
      (** traced runs only: re-measure a layer the op reaches only
          inside another layer (reported, never counted in op time). *)
  close : unit -> unit;
}

type t = {
  name : string;
  tail_pct : float;  (** highest percentile with >= 10 of the cycle's ops beyond it. *)
  rounds : int;  (** fresh set-ups per run, each followed by cycles. *)
  chunk : int;
      (** consecutive ops timed as one unit, allocating about seven
          minor heaps (2 MiB each) or more, so that each repetition
          pays its GC: 20 serve-warm ops allocate about 16 MB, one
          campaign-resume op about 19 MB. *)
  setup : seed:int -> mark:(unit -> unit) -> instance;
      (** [mark ()] ends a step of the set-up: the steps are timed
          apart, like the chunks of the op cycle.  Each step allocates
          several minor heaps or more. *)
}

(* Counters the benchmark keeps itself, next to the library's in the
   process-wide registry, so one snapshot diff yields every count. *)
let c_payload_bytes = Metrics.counter "bench.payload_bytes"
let c_bucket_hits = Metrics.counter "bench.bucket_hits"
let c_bucket_misses = Metrics.counter "bench.bucket_misses"
let c_sfp_kept = Metrics.counter "bench.whatif_sfp_kept"
let c_sfp_dropped = Metrics.counter "bench.whatif_sfp_dropped"
let c_evals_kept = Metrics.counter "bench.whatif_evals_kept"
let c_evals_dropped = Metrics.counter "bench.whatif_evals_dropped"
let c_steps_replayed = Metrics.counter "bench.whatif_steps_replayed"
let c_steps_total = Metrics.counter "bench.whatif_steps_total"
let c_checkpoint_bytes = Metrics.counter "bench.checkpoint_bytes"
let c_checkpoint_writes = Metrics.counter "bench.checkpoint_writes"

let ok_exn what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "perfbench: %s: %s" what e)

(* The default seed of the bench/ harnesses. *)
let population_seed = 42

let shuffled prng a =
  let a = Array.copy a in
  Prng.shuffle prng a;
  a

let error_result = { digest = ""; verdict = Response.verdict_name Response.Failed }

(* A §7 application at an explicit cell, with its library shrunk for
   the request mixes that must stay interactive. *)
let synthetic ~index ~n ~lib ~levels ~ser ~hpd =
  let params =
    { Workload.default_params with Workload.n_library = lib; levels }
  in
  let spec =
    Workload.generate_spec ~params ~seed:population_seed ~index ~n_processes:n ()
  in
  Workload.problem_of_spec ~params { Workload.ser; hpd } spec

(* --- daemon ops --- *)

let serve_line caches ~seq line =
  let before_hits = Daemon.cache_hits caches in
  let before_misses = Daemon.cache_misses caches in
  let response =
    match Daemon.run_lines ~pool:Pool.sequential ~caches ~first_seq:seq [ line ] with
    | [ r ] -> r
    | _ -> failwith "perfbench: the daemon answered one line with other than one response"
  in
  Metrics.add c_bucket_hits (Daemon.cache_hits caches - before_hits);
  Metrics.add c_bucket_misses (Daemon.cache_misses caches - before_misses);
  response

let result_of_response (r : Response.t) =
  ignore (Span.with_ ~name:"driver/render" (fun () -> Response.to_line r));
  let fp = Response.fingerprint r in
  let verdict = Response.verdict_name r.Response.verdict in
  (* The fingerprint is "verdict|id|payload". *)
  Metrics.add c_payload_bytes
    (String.length fp - String.length verdict - String.length r.Response.id - 2);
  { digest = Fingerprint.of_string fp; verdict }

(* --- what-if requests --- *)

let delta_of_class prng problem cls =
  let app = problem.Problem.app in
  let jitter lo hi = lo +. ((hi -. lo) *. Prng.float prng 1.0) in
  let lib = Problem.n_library problem in
  let node = Prng.int prng lib in
  let level = 1 + Prng.int prng (Problem.levels problem node) in
  let proc = Prng.int prng (Problem.n_processes problem) in
  match cls with
  | "deadline-set" ->
      Delta.Deadline_set (app.Application.deadline_ms *. jitter 0.995 1.005)
  | "deadline-scale" -> Delta.Deadline_scale (jitter 0.995 1.005)
  | "period-set" -> Delta.Period_set (app.Application.period_ms *. jitter 1.0 1.01)
  | "period-scale" -> Delta.Period_scale (jitter 1.0 1.01)
  | "gamma-set" -> Delta.Gamma_set (app.Application.gamma *. jitter 0.99 1.0)
  | "wcet-scale" -> Delta.Wcet_scale { node; factor = jitter 0.995 1.005 }
  | "ser-scale" -> Delta.Ser_scale { node; factor = jitter 0.99 1.0 }
  | "hversion-cost-set" ->
      (* Towards the upper neighbour: stays inside the monotone band. *)
      let c = Problem.cost problem ~node ~level in
      let hi =
        if level < Problem.levels problem node then
          Problem.cost problem ~node ~level:(level + 1)
        else c *. 1.5
      in
      Delta.Hversion_cost_set { node; level; cost = c +. ((hi -. c) *. jitter 0.01 0.05) }
  | "hversion-wcet-set" ->
      let w = Problem.wcet problem ~node ~level ~proc in
      Delta.Hversion_wcet_set { node; level; proc; wcet_ms = w *. jitter 0.995 1.005 }
  | "hversion-pfail-set" ->
      (* Towards the next level's pfail: stays inside the monotone band. *)
      let p = Problem.pfail problem ~node ~level ~proc in
      let lo =
        if level < Problem.levels problem node then
          Problem.pfail problem ~node ~level:(level + 1) ~proc
        else p *. 0.5
      in
      Delta.Hversion_pfail_set { node; level; proc; pfail = lo +. ((p -. lo) *. jitter 0.95 1.0) }
  | "node-add" ->
      let src = Problem.node problem (Prng.int prng lib) in
      Delta.Node_add
        (Platform.node_type ~name:(src.Platform.node_name ^ "'")
           ~versions:src.Platform.versions)
  | "node-remove" -> Delta.Node_remove node
  | "kmax-set" -> Delta.Kmax_set (8 + Prng.int prng 5)
  | other -> failwith ("perfbench: unknown delta class " ^ other)

let whatif_request ~id ~base_id delta =
  Json.to_string ~minify:true
    (Json.Object
       [ ("schema_version", Json.Number (float_of_int Request.schema_version));
         ("id", Json.String id);
         ("command", Json.String "optimize");
         ("base_id", Json.String base_id);
         ("delta", Delta.to_json delta) ])

let count_reuse (r : Response.t) =
  match r.Response.telemetry with
  | Some { Response.reuse = Some u; _ } ->
      Metrics.add c_sfp_kept u.Reuse.sfp_kept;
      Metrics.add c_sfp_dropped u.Reuse.sfp_dropped;
      Metrics.add c_evals_kept u.Reuse.evals_kept;
      Metrics.add c_evals_dropped u.Reuse.evals_dropped;
      Metrics.add c_steps_replayed u.Reuse.steps_replayed;
      Metrics.add c_steps_total u.Reuse.steps_total
  | _ -> ()

(* --- serve-warm ---

   A mixed request stream over a few problems through one resident
   daemon whose caches the set-up pass has already warmed: the search
   mostly hits, so request parse/validate, certification, rendering
   and registry lookups carry a large share.  Exact requests stay on
   tiny instances (the exact search keeps no cross-request memo).  One
   request in twenty is a what-if (base_id + delta) on a resident base:
   it migrates and invalidates cache entries where the rest only read
   them. *)

(* A fixed multiset of 260 requests: fixed command proportions (3/10
   analyze, 4/10 optimize, 1/10 pareto, 1/10 exact, 1/20 exact on tiny
   instances, 1/20 what-if covering all 13 delta classes) crossed with
   every strategy, slack and bus policy.  The seed orders them.  The
   proportions are those of bench/serve.ml's request_of_index, except
   that half of its tiny-exact slot goes to what-if requests, a share
   chosen, not measured (README.md). *)
let serve_lines ~seed ~small ~tiny ~bases =
  let slacks = [| Scheduler.Shared; Scheduler.Conservative; Scheduler.Dedicated |] in
  let buses = [| Bus.Fcfs; Bus.Tdma { slot_ms = 2.0 } |] in
  let strategies = [| "opt"; "min"; "max" |] in
  let target k =
    match k mod 4 with
    | 0 -> `Example "fig1"
    | 1 -> `Example "fig3"
    | 2 -> `Example "cc"
    | _ -> `Problem small.(k / 4 mod Array.length small)
  in
  let deltas = Prng.create population_seed in
  let request i =
    let slack = slacks.(i mod 3) and bus = buses.(i / 3 mod 2) in
    let strategy = strategies.(i / 7 mod 3) in
    let j = i / 10 in
    let plain command problem = `Plain (strategy, slack, bus, command, problem) in
    match i mod 10 with
    | 0 | 1 | 2 -> plain Request.Analyze (target j)
    | 3 | 4 | 5 | 6 -> plain Request.Optimize (target (j + (i mod 10)))
    | 7 ->
        plain
          (Request.Pareto { eps = 0.0; objectives = Objective.all; ref_cost = None })
          (if j mod 2 = 0 then `Example "fig1" else `Example "cc")
    | 8 -> plain (Request.Exact { limit = None }) (`Example "fig1")
    | _ when j mod 2 = 0 -> plain (Request.Exact { limit = None }) (`Problem tiny.(j / 2 mod 2))
    | _ ->
        let base_id, problem = List.nth bases (j / 2 mod List.length bases) in
        let cls = List.nth Delta.class_names (j / 2 mod List.length Delta.class_names) in
        `Whatif (base_id, delta_of_class deltas problem cls)
  in
  (* Each line, and whether it is a what-if. *)
  shuffled (Prng.create seed) (Array.init 260 request)
  |> Array.mapi (fun i r ->
         let id = Printf.sprintf "req-%03d" i in
         match r with
         | `Plain (strategy, slack, bus, command, problem) ->
             ( Request.to_string
                 (ok_exn "serve-warm request"
                    (Request.make ~id ~strategy ~slack ~bus command problem)),
               false )
         | `Whatif (base_id, delta) -> (whatif_request ~id ~base_id delta, true))

let serve_warm_setup ~seed ~mark =
  let small, tiny =
    Span.with_ ~name:"gen/population" (fun () ->
        ( Array.init 4 (fun index ->
              synthetic ~index ~n:6 ~lib:2 ~levels:3 ~ser:1e-10 ~hpd:0.5),
          Array.init 2 (fun index ->
              synthetic ~index ~n:4 ~lib:2 ~levels:3 ~ser:1e-10 ~hpd:0.5) ))
  in
  let bases = [ ("base-0", small.(0)); ("base-1", small.(1)) ] in
  let lines, whatif =
    Array.split
      (Span.with_ ~name:"model/encode" (fun () -> serve_lines ~seed ~small ~tiny ~bases))
  in
  mark ();
  let caches = Daemon.create_caches () in
  (* The what-if bases first, so they always hold a registry slot; then
     the warm-up pass: every request once, filling every cache bucket. *)
  List.iteri
    (fun seq (id, problem) ->
      let line =
        Request.to_string (ok_exn "serve base" (Request.make ~id Request.Optimize (`Problem problem)))
      in
      ignore (serve_line caches ~seq line))
    bases;
  let seq = ref (List.length bases) in
  let serve k =
    let r = serve_line caches ~seq:!seq lines.(k) in
    incr seq;
    r
  in
  Array.iteri
    (fun k _ ->
      ignore (serve k);
      if (k + 1) mod 20 = 0 then mark ())
    lines;
  { n_ops = Array.length lines;
    op =
      (fun k ->
        let name = if whatif.(k) then "whatif/rerun" else "driver/serve" in
        let r = Span.with_ ~name (fun () -> serve k) in
        count_reuse r;
        result_of_response r);
    shadow =
      Some
        (fun k ->
          ignore
            (Span.with_ ~name:"driver/parse" (fun () ->
                 Request.of_string ~on_warning:ignore
                   ~resolve_base:(fun id -> List.assoc_opt id bases)
                   lines.(k))));
    close = ignore }

(* --- campaign-resume ---

   A small campaign run to completion in set-up; each op then replays
   the kill that resume exists for (drop the last cell of one seeded
   shard's checkpoint), resumes it, and merges.  Checkpoint and
   manifest codecs carry most of the op. *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let work_root = ".perfbench"

let fresh_dir name =
  if not (Sys.file_exists work_root) then Sys.mkdir work_root 0o755;
  let dir =
    Filename.concat work_root (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  remove_tree dir;
  Sys.mkdir dir 0o755;
  dir

(* Bytes a checkpoint write put on disk, less the per-cell wall times
   it records: what remains depends only on the results. *)
let checkpoint_bytes path (c : Checkpoint.t) =
  List.fold_left
    (fun bytes (cell : Checkpoint.cell_result) ->
      bytes - String.length (Json.to_string (Json.Number cell.Checkpoint.elapsed_s)))
    (Unix.stat path).Unix.st_size c.Checkpoint.cells

(* One application per shard; the last cell of the grid is the cheap
   MIN policy, so resuming it costs little search and the checkpoint
   and manifest codecs carry the op. *)
let campaign_shards = 16

let campaign_resume_setup ~seed ~mark =
  let dir = fresh_dir "campaign" in
  let manifest =
    Manifest.make ~hpds:[ 0.25; 0.5 ] ~policies:[ Config.Optimize; Config.Fixed_min ]
      ~apps:campaign_shards ~seed:population_seed ~shards:campaign_shards ()
  in
  Manifest.save ~dir manifest;
  let summary =
    Runner.run_local
      ~on_cell:(fun ~shard ~cell_index ~n_cells ->
        (* Two shards per step: some one-app shards allocate only
           about one minor heap. *)
        if shard mod 2 = 1 && cell_index + 1 = n_cells then mark ())
      ~manifest ~dir ()
  in
  if summary.Runner.failed <> [] then failwith "perfbench: campaign set-up failed";
  let merge checkpoints =
    let merged = ok_exn "merge" (Merge.of_checkpoints ~manifest checkpoints) in
    Merge.save ~dir merged;
    Merge.fingerprint merged
  in
  let complete = function
    | Runner.Complete c -> c
    | _ -> failwith "perfbench: campaign set-up left an incomplete shard"
  in
  let reference =
    merge (Array.to_list (Array.map complete (Runner.scan ~manifest ~dir)))
  in
  (* Every shard killed and resumed eight times per cycle, in seeded
     order. *)
  let order =
    shuffled (Prng.create seed) (Array.init (8 * campaign_shards) (fun i -> i mod campaign_shards))
  in
  let op k =
    let shard = order.(k) in
    let path = Checkpoint.path ~dir shard in
    let killed =
      Span.with_ ~name:"campaign/kill" (fun () ->
          let c = ok_exn "load" (Checkpoint.load ~manifest ~dir shard) in
          let n = List.length c.Checkpoint.cells in
          let c =
            { c with
              Checkpoint.cells = List.filteri (fun i _ -> i < n - 1) c.Checkpoint.cells;
              complete = false }
          in
          Checkpoint.save ~dir c;
          c)
    in
    Metrics.incr c_checkpoint_writes;
    Metrics.add c_checkpoint_bytes (checkpoint_bytes path killed);
    let states = Span.with_ ~name:"campaign/scan" (fun () -> Runner.scan ~manifest ~dir) in
    let outcome =
      Span.with_ ~name:"campaign/rerun" (fun () -> Runner.run_shard ~manifest ~dir shard)
    in
    match (states.(shard), outcome) with
    | Runner.Partial _, Ok o when o.Runner.fresh_cells = 1 ->
        Metrics.incr c_checkpoint_writes;
        Metrics.add c_checkpoint_bytes (checkpoint_bytes path o.Runner.checkpoint);
        let checkpoints =
          List.init campaign_shards (fun s ->
              if s = shard then o.Runner.checkpoint else complete states.(s))
        in
        let fp = Span.with_ ~name:"campaign/merge" (fun () -> merge checkpoints) in
        { digest = fp;
          verdict =
            Response.verdict_name
              (if fp = reference then Response.Feasible else Response.Failed) }
    | _ -> error_result
  in
  { n_ops = Array.length order;
    op = (fun k -> try op k with Failure _ -> error_result);
    shadow = None;
    close = (fun () -> remove_tree dir) }

let all =
  [ { name = "serve-warm"; tail_pct = 95.0; rounds = 8; chunk = 20;
      setup = serve_warm_setup };
    { name = "campaign-resume"; tail_pct = 90.0; rounds = 8; chunk = 1;
      setup = campaign_resume_setup } ]
