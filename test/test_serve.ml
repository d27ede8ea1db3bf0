(* The design-service request lifecycle: daemon responses must be
   bit-identical to one-shot execution of the same request, 1:1 with
   the request stream and in request order under a concurrent pool,
   and garbage on the wire must come back as a structured error
   without killing the daemon.  The serve/* verifier rules are
   mutation-tested here: each rule must fire on a stream corrupted in
   exactly the way it audits.

   The golden JSONL pair under [golden/] pins the cruise-controller
   wire bytes.  To regenerate after an intentional change:

     FTES_REGEN_GOLDEN=$PWD/test/golden dune exec test/test_serve.exe *)

module Json = Ftes_util.Json
module Config = Ftes_core.Config
module Scheduler = Ftes_sched.Scheduler
module Bus = Ftes_sched.Bus
module Pool = Ftes_par.Pool
module Workload = Ftes_gen.Workload
module Problem_io = Ftes_model.Problem_io
module Objective = Ftes_pareto.Objective
module Lifecycle = Ftes_driver.Lifecycle
module Request = Ftes_driver.Request
module Response = Ftes_driver.Response
module Exec = Ftes_driver.Exec
module Daemon = Ftes_driver.Daemon
module Subject = Ftes_verify.Subject
module Verify = Ftes_verify.Verify
module Serve_rules = Ftes_verify.Serve_rules
module Report = Ftes_verify.Report

let ok_exn = function Ok v -> v | Error e -> failwith e

let pareto_all =
  Request.Pareto { eps = 0.0; objectives = Objective.all; ref_cost = None }

(* The one-shot half of the differential: execute the request on the
   shared Exec path exactly as a CLI subcommand would, with no daemon
   envelope and no cache. *)
let one_shot (req : Request.t) =
  let outcome = Exec.run req in
  { Response.id = req.Request.id;
    seq = 0;
    verdict = Exec.verdict outcome;
    payload = Exec.payload req outcome;
    error = None;
    telemetry = None }

let daemon_once ?pool ?caches req =
  match Daemon.run_lines ?pool ?caches [ Request.to_string req ] with
  | [ r ] -> r
  | rs -> failwith (Printf.sprintf "expected 1 response, got %d" (List.length rs))

(* --- golden cruise-controller stream --- *)

let golden_requests () =
  let mk ?strategy ?slack ?bus id command =
    ok_exn (Request.make ~id ?strategy ?slack ?bus command (`Example "cc"))
  in
  [ mk "cc-analyze" Request.Analyze;
    mk "cc-opt" Request.Optimize;
    mk "cc-min" ~strategy:"min" Request.Optimize;
    mk "cc-max" ~strategy:"max" ~slack:Scheduler.Conservative
      ~bus:(Bus.Tdma { slot_ms = 2.0 })
      Request.Optimize;
    mk "cc-pareto" pareto_all ]

let read_lines path = In_channel.with_open_text path In_channel.input_lines

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun line ->
          Out_channel.output_string oc line;
          Out_channel.output_char oc '\n')
        lines)

let () =
  match Sys.getenv_opt "FTES_REGEN_GOLDEN" with
  | Some dir ->
      let requests = golden_requests () in
      let lines = List.map Request.to_string requests in
      (* Telemetry carries wall-clock times; the golden stream pins
         only the deterministic bytes. *)
      let responses = Daemon.run_lines ~telemetry:false lines in
      write_lines (Filename.concat dir "serve_cc_requests.jsonl") lines;
      write_lines
        (Filename.concat dir "serve_cc_responses.jsonl")
        (List.map Response.to_line responses);
      Printf.printf "regenerated serve_cc_{requests,responses}.jsonl in %s\n%!"
        dir;
      exit 0
  | None -> ()

let golden_path name =
  let local = Filename.concat "golden" name in
  if Sys.file_exists local then local
  else Filename.concat (Filename.concat "test" "golden") name

let test_golden_cc () =
  let requests = read_lines (golden_path "serve_cc_requests.jsonl") in
  let golden = read_lines (golden_path "serve_cc_responses.jsonl") in
  let fresh =
    List.map Response.to_line (Daemon.run_lines ~telemetry:false requests)
  in
  Alcotest.(check int)
    "response count" (List.length golden) (List.length fresh);
  List.iteri
    (fun i (want, got) ->
      Alcotest.(check string) (Printf.sprintf "response %d bytes" i) want got)
    (List.combine golden fresh)

(* The checked-in requests are the wire spelling of [golden_requests]:
   a drift in the request encoder fails here, not only in regen. *)
let test_golden_requests_current () =
  let golden = read_lines (golden_path "serve_cc_requests.jsonl") in
  let fresh = List.map Request.to_string (golden_requests ()) in
  Alcotest.(check (list string)) "request bytes" golden fresh

(* --- daemon == one-shot, across the wire policy grid --- *)

let test_differential_policy_grid () =
  List.iter
    (fun (sname, slack) ->
      List.iter
        (fun (bname, bus) ->
          let req =
            ok_exn
              (Request.make
                 ~id:(Printf.sprintf "fig1-%s-%s" sname bname)
                 ~slack ~bus Request.Optimize (`Example "fig1"))
          in
          Alcotest.(check string)
            (Printf.sprintf "fig1 optimize %s/%s" sname bname)
            (Response.fingerprint (one_shot req))
            (Response.fingerprint (daemon_once req)))
        Helpers.named_bus_policies)
    Helpers.named_slack_policies

let test_differential_commands () =
  let caches = Daemon.create_caches () in
  List.iter
    (fun (label, req) ->
      Alcotest.(check string) label
        (Response.fingerprint (one_shot req))
        (Response.fingerprint (daemon_once ~caches req)))
    [ ( "cc analyze",
        ok_exn (Request.make ~id:"cc-a" Request.Analyze (`Example "cc")) );
      ( "cc optimize",
        ok_exn (Request.make ~id:"cc-o" Request.Optimize (`Example "cc")) );
      ( "fig1 exact",
        ok_exn
          (Request.make ~id:"fig1-x"
             (Request.Exact { limit = None })
             (`Example "fig1")) );
      ( "fig1 pareto",
        ok_exn (Request.make ~id:"fig1-p" pareto_all (`Example "fig1")) ) ]

let prop_differential_inline =
  QCheck.Test.make ~count:6
    ~name:"daemon == one-shot on inline problems (seed x slack x bus)"
    QCheck.(triple small_nat (int_bound 2) bool)
    (fun (seed, slack_i, tdma) ->
      let problem = Helpers.small_problem seed in
      let slack = snd (List.nth Helpers.named_slack_policies slack_i) in
      let bus = if tdma then Bus.Tdma { slot_ms = 2.0 } else Bus.Fcfs in
      let req =
        ok_exn
          (Request.make ~id:"inline" ~slack ~bus Request.Optimize
             (`Problem problem))
      in
      Response.fingerprint (one_shot req)
      = Response.fingerprint (daemon_once req))

(* --- 1:1, ordered, concurrent --- *)

let test_order_under_pool () =
  let pool = Pool.create ~domains:4 () in
  let caches = Daemon.create_caches () in
  let requests =
    List.concat_map
      (fun strategy ->
        List.map
          (fun (sname, slack) ->
            ok_exn
              (Request.make
                 ~id:(Printf.sprintf "fig1-%s-%s" strategy sname)
                 ~strategy ~slack Request.Optimize (`Example "fig1")))
          Helpers.named_slack_policies)
      [ "opt"; "min"; "max" ]
    @ [ ok_exn (Request.make ~id:"cc-tail" Request.Analyze (`Example "cc")) ]
  in
  let lines = List.map Request.to_string requests in
  let responses = Daemon.run_lines ~pool ~caches ~first_seq:7 lines in
  Alcotest.(check int) "1:1" (List.length requests) (List.length responses);
  List.iteri
    (fun i (req, resp) ->
      Alcotest.(check int)
        (Printf.sprintf "seq of response %d" i)
        (7 + i) resp.Response.seq;
      Alcotest.(check string)
        (Printf.sprintf "id of response %d" i)
        req.Request.id resp.Response.id;
      Alcotest.(check string)
        (Printf.sprintf "fingerprint of response %d" i)
        (Response.fingerprint (one_shot req))
        (Response.fingerprint resp))
    (List.combine requests responses)

(* --- a mixed stream through one warm registry --- *)

(* Request [i] of the mixed stream: analyze / optimize / pareto / exact
   over the built-in examples and the synthetic and tiny instances
   below, rotating strategy, slack and bus policy with [i]. *)
let mixed_problem ~n index =
  let params =
    { Workload.default_params with Workload.n_library = 2; levels = 3 }
  in
  let spec = Workload.generate_spec ~params ~seed:42 ~index ~n_processes:n () in
  Workload.problem_of_spec ~params { Workload.ser = 1e-10; hpd = 0.5 } spec

let mixed_synthetic = lazy (Array.init 4 (mixed_problem ~n:6))

(* Small enough for the exact optimizer. *)
let mixed_tiny = lazy (Array.init 2 (mixed_problem ~n:4))

let request_of_index i =
  let synthetic = Lazy.force mixed_synthetic in
  let tiny = Lazy.force mixed_tiny in
  let pick a = a.(i mod Array.length a) in
  let slack =
    pick [| Scheduler.Shared; Scheduler.Conservative; Scheduler.Dedicated |]
  in
  let bus = pick [| Bus.Fcfs; Bus.Tdma { slot_ms = 2.0 } |] in
  let strategy = pick [| "opt"; "min"; "max" |] in
  (* Every fourth [k] is synthetic; [k / 4] counts those picks and [i]
     staggers analyze against optimize, so that 24 requests reach all
     four synthetic instances. *)
  let target k =
    match k mod 4 with
    | 0 -> `Example "fig1"
    | 1 -> `Example "fig3"
    | 2 -> `Example "cc"
    | _ -> `Problem synthetic.(((k / 4) + i) mod Array.length synthetic)
  in
  let command, problem =
    match i mod 10 with
    | 0 | 1 | 2 -> (Request.Analyze, target (i / 3))
    | 3 | 4 | 5 | 6 -> (Request.Optimize, target (i / 2))
    | 7 -> (pareto_all, if i mod 20 = 7 then `Example "fig1" else `Example "cc")
    | 8 ->
        ( Request.Exact { limit = None },
          if i mod 20 = 8 then `Example "fig1" else `Example "fig3" )
    | _ -> (Request.Exact { limit = None }, `Problem (pick tiny))
  in
  ok_exn
    (Request.make ~id:(Printf.sprintf "req-%03d" i) ~strategy ~slack ~bus
       command problem)

let rec batches n lines =
  if lines = [] then []
  else
    let batch = List.filteri (fun i _ -> i < n) lines in
    batch :: batches n (List.filteri (fun i _ -> i >= n) lines)

(* 24 requests sent in batches of 16 through one cache registry on a
   sequential pool, so the only thing shared between requests is the
   warm cache: every daemon response must match the one-shot run of
   its request, and none may fail. *)
let test_mixed_stream_one_registry () =
  let requests = List.init 24 request_of_index in
  let caches = Daemon.create_caches () in
  let _, rev_responses =
    List.fold_left
      (fun (seq, acc) batch ->
        let responses =
          Daemon.run_lines ~pool:Pool.sequential ~caches ~first_seq:seq batch
        in
        (seq + List.length responses, List.rev_append responses acc))
      (0, [])
      (batches 16 (List.map Request.to_string requests))
  in
  let responses = List.rev rev_responses in
  Alcotest.(check int) "1:1" (List.length requests) (List.length responses);
  List.iter2
    (fun req resp ->
      let id = req.Request.id in
      Alcotest.(check bool) (id ^ ": not failed") true
        (resp.Response.verdict <> Response.Failed);
      Alcotest.(check string) (id ^ ": fingerprint")
        (Response.fingerprint (one_shot req))
        (Response.fingerprint resp))
    requests responses;
  Alcotest.(check bool) "the registry was reused" true
    (Daemon.cache_hits caches > 0)

(* --- garbage in, structured error out --- *)

let test_malformed_lines_survive () =
  let lines =
    [ "this is not JSON";
      "{\"schema_version\": 99, \"id\": \"too-new\", \"command\": \
       \"analyze\", \"example\": \"fig1\"}";
      "{\"schema_version\": 1, \"id\": \"bad-cmd\", \"command\": \
       \"frobnicate\", \"example\": \"fig1\"}";
      "{\"schema_version\": 1, \"id\": \"bad-ex\", \"command\": \"analyze\", \
       \"example\": \"fig9\"}";
      "{\"schema_version\": 1, \"command\": \"analyze\", \"example\": \
       \"fig1\"}";
      (* Numbers past the int range and past the float range. *)
      {|{"schema_version": 1, "id": "huge-kmax", "command": "optimize", "example": "cc", "kmax": 1e300}|};
      {|{"schema_version": 1, "id": "inf-ref", "command": "pareto", "example": "cc", "ref_cost": 1e999}|};
      Request.to_string
        (ok_exn (Request.make ~id:"good" Request.Analyze (`Example "fig1"))) ]
  in
  let responses = Daemon.run_lines lines in
  Alcotest.(check int) "1:1" (List.length lines) (List.length responses);
  let failed, good =
    match List.rev responses with
    | good :: rev_failed -> (List.rev rev_failed, good)
    | [] -> assert false
  in
  List.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "line %d: verdict error" i)
        true
        (r.Response.verdict = Response.Failed);
      Alcotest.(check bool)
        (Printf.sprintf "line %d: non-empty error message" i)
        true
        (match r.Response.error with Some msg -> msg <> "" | None -> false);
      Alcotest.(check bool)
        (Printf.sprintf "line %d: empty payload" i)
        true
        (r.Response.payload = Json.Object []))
    failed;
  (* The daemon survived the garbage: the trailing valid request still
     executes normally. *)
  Alcotest.(check string) "survivor id" "good" good.Response.id;
  Alcotest.(check bool) "survivor verdict" true
    (good.Response.verdict = Response.Feasible);
  (* Echoed ids are best-effort even on parse failures. *)
  Alcotest.(check string) "id echoed from bad command"
    "bad-cmd" (List.nth responses 2).Response.id;
  Alcotest.(check string) "id echoed from out-of-range kmax"
    "huge-kmax" (List.nth responses 5).Response.id

(* --- verdict and exit semantics --- *)

let test_infeasible_verdict () =
  let problem = Problem_io.load (golden_path "infeasible-fig1.json") in
  let problem = ok_exn problem in
  let req =
    ok_exn (Request.make ~id:"inf" Request.Analyze (`Problem problem))
  in
  let resp = daemon_once req in
  Alcotest.(check bool) "daemon verdict infeasible" true
    (resp.Response.verdict = Response.Infeasible);
  Alcotest.(check string) "one-shot agrees"
    (Response.fingerprint (one_shot req))
    (Response.fingerprint resp)

let test_exit_of_verdict () =
  List.iter
    (fun (verdict, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "exit of %S" (Response.verdict_name verdict))
        expected
        (Lifecycle.int_of_exit_code (Response.exit_of_verdict verdict)))
    [ (Response.Feasible, 0);
      (Response.No_solution, 0);
      (Response.Failed, 0);
      (Response.Infeasible, 3);
      (Response.Lint_failure, 3) ]

(* --- wire round-trips --- *)

let prop_request_roundtrip =
  QCheck.Test.make ~count:40
    ~name:"Request.of_string (Request.to_string r) re-emits the same bytes"
    QCheck.(quad (int_bound 3) (int_bound 2) bool small_nat)
    (fun (cmd_i, slack_i, tdma, kmax) ->
      let command =
        match cmd_i with
        | 0 -> Request.Analyze
        | 1 -> Request.Optimize
        | 2 -> Request.Exact { limit = Some (1 + kmax) }
        | _ ->
            Request.Pareto
              { eps = 0.1;
                objectives = Objective.all;
                ref_cost = Some 42.0 }
      in
      let slack = snd (List.nth Helpers.named_slack_policies slack_i) in
      let bus = if tdma then Bus.Tdma { slot_ms = 2.0 } else Bus.Fcfs in
      let req =
        ok_exn
          (Request.make ~id:"rt" ~slack ~bus ~kmax:(kmax mod 3) command
             (`Example "fig1"))
      in
      let line = Request.to_string req in
      Request.to_string (ok_exn (Request.of_string line)) = line)

let test_response_roundtrip () =
  let resp =
    { Response.id = "rt";
      seq = 3;
      verdict = Response.Lint_failure;
      payload = Json.Object [ ("feasible", Json.Bool false) ];
      error = None;
      telemetry =
        Some
          { Response.queue_wait_ns = 12;
            wall_ns = 3456;
            sfp_hits = 7;
            sfp_misses = 8;
            eval_hits = 9;
            eval_misses = 10;
            cache_problems = 2;
            registry_hits = 1;
            registry_misses = 4;
            reuse = None } }
  in
  let line = Response.to_line resp in
  Alcotest.(check string) "re-emitted bytes" line
    (Response.to_line (ok_exn (Response.of_string line)))

(* --- warm cache: invisible to results, visible to counters --- *)

let test_warm_cache_fingerprints () =
  let caches = Daemon.create_caches () in
  let req strategy =
    ok_exn
      (Request.make ~id:("cc-" ^ strategy) ~strategy Request.Optimize
         (`Example "cc"))
  in
  let cold = daemon_once ~caches (req "opt") in
  let warm = daemon_once ~caches (req "opt") in
  Alcotest.(check string) "warm == cold payload bytes"
    (Json.to_string ~minify:true cold.Response.payload)
    (Json.to_string ~minify:true warm.Response.payload);
  (* Strategies differing only in hardening policy share one bucket. *)
  let _ = daemon_once ~caches (req "min") in
  Alcotest.(check int) "one problem bucket" 1 (Daemon.cache_problems caches);
  Alcotest.(check bool) "registry hits observed" true
    (Daemon.cache_hits caches >= 2)

(* Buckets are keyed on problem identity: the inline spelling of cc
   lands in the bucket "example": "cc" opened, and a copy that differs
   from a resident problem only in the sign of a zero (rendered "-0" on
   the wire) opens a bucket of its own. *)
let test_bucket_problem_identity () =
  let caches = Daemon.create_caches () in
  let cc = Ftes_cc.Cruise_control.problem () in
  let optimize id problem =
    ignore (daemon_once ~caches (ok_exn (Request.make ~id Request.Optimize problem)))
  in
  let check_buckets label ~problems ~hits =
    Alcotest.(check (pair int int))
      (label ^ ": buckets, hits")
      (problems, hits)
      (Daemon.cache_problems caches, Daemon.cache_hits caches)
  in
  let with_mu mu =
    let set key v fields =
      List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) fields
    in
    match Problem_io.to_json cc with
    | Json.Object fields ->
        let app =
          match List.assoc "application" fields with
          | Json.Object app ->
              Json.Object (set "recovery_overhead_ms" (Json.Number mu) app)
          | _ -> Alcotest.fail "application is not an object"
        in
        ok_exn (Problem_io.of_json (Json.Object (set "application" app fields)))
    | _ -> Alcotest.fail "problem is not an object"
  in
  optimize "by-name" (`Example "cc");
  check_buckets "example cc" ~problems:1 ~hits:0;
  optimize "inline" (`Problem cc);
  check_buckets "inline cc" ~problems:1 ~hits:1;
  optimize "mu+0" (`Problem (with_mu 0.0));
  check_buckets "mu = 0" ~problems:2 ~hits:1;
  optimize "mu-0" (`Problem (with_mu (-0.0)));
  check_buckets "mu = -0" ~problems:3 ~hits:1;
  optimize "mu+0 again" (`Problem (with_mu 0.0));
  check_buckets "mu = 0 again" ~problems:3 ~hits:2

(* Analyze requests answer from the pre-flight memo: one entry per
   (kmax, re-execution bucket, problem identity), bounded by
   [max_problems], and never a Redundancy_opt bucket. *)
let test_preflight_memo () =
  let counters =
    List.map
      (fun name -> Ftes_obs.Metrics.counter ("serve.preflights." ^ name))
      [ "misses"; "hits"; "capacity_drops" ]
  in
  let sample () = List.map Ftes_obs.Metrics.counter_value counters in
  let analyze ?slack ?kmax caches id problem =
    let req =
      ok_exn (Request.make ~id ?slack ?kmax Request.Analyze problem)
    in
    let before = sample () in
    let resp = daemon_once ~caches req in
    Alcotest.(check string)
      (id ^ ": payload = one-shot")
      (Response.fingerprint (one_shot req))
      (Response.fingerprint resp);
    ( Json.to_string ~minify:true resp.Response.payload,
      List.map2 ( - ) (sample ()) before )
  in
  let check label (want_misses, want_hits, want_drops) moved =
    Alcotest.(check (list int))
      (label ^ ": misses, hits, drops") [ want_misses; want_hits; want_drops ]
      moved
  in
  let caches = Daemon.create_caches () in
  let first, moved = analyze caches "cc-1" (`Example "cc") in
  check "first analyze" (1, 0, 0) moved;
  let again, moved = analyze caches "cc-2" (`Example "cc") in
  check "second analyze" (0, 1, 0) moved;
  Alcotest.(check string) "repeated payload bytes" first again;
  let _, moved =
    analyze caches "cc-inline" (`Problem (Ftes_cc.Cruise_control.problem ()))
  in
  check "inline cc shares the entry" (0, 1, 0) moved;
  let _, moved = analyze caches "cc-k11" ~kmax:11 (`Example "cc") in
  check "kmax 11 opens an entry" (1, 0, 0) moved;
  List.iter
    (fun (name, slack) ->
      let _, moved = analyze caches ("cc-" ^ name) ~slack (`Example "cc") in
      check (name ^ " shares the re-execution entry") (0, 1, 0) moved)
    Helpers.named_slack_policies;
  Alcotest.(check int) "analyze opens no evaluation bucket" 0
    (Daemon.cache_problems caches);
  let bounded = Daemon.create_caches ~max_problems:1 () in
  let _, moved = analyze bounded "fig1" (`Example "fig1") in
  check "bounded: first problem stored" (1, 0, 0) moved;
  let _, moved = analyze bounded "cc-over" (`Example "cc") in
  check "bounded: second problem dropped" (1, 0, 1) moved;
  let _, moved = analyze bounded "cc-over-again" (`Example "cc") in
  check "bounded: dropped problem recomputed" (1, 0, 1) moved;
  let _, moved = analyze bounded "fig1-again" (`Example "fig1") in
  check "bounded: stored problem still hits" (0, 1, 0) moved

(* Exact requests answer from the exact memo: one entry per (hardening
   strategy, tabu iteration cap, kmax, slack, bus, limit, problem
   identity), bounded by [max_problems], holding finished proofs only,
   and never a Redundancy_opt bucket. *)
let exact_counters () =
  let counters =
    List.map
      (fun name -> Ftes_obs.Metrics.counter ("serve.exact." ^ name))
      [ "misses"; "hits"; "capacity_drops" ]
  in
  fun () -> List.map Ftes_obs.Metrics.counter_value counters

let test_exact_memo () =
  let sample = exact_counters () in
  let exact ?strategy ?slack ?bus ?kmax ?limit caches id problem =
    let req =
      ok_exn
        (Request.make ~id ?strategy ?slack ?bus ?kmax (Request.Exact { limit })
           problem)
    in
    let before = sample () in
    let resp = daemon_once ~caches req in
    Alcotest.(check string)
      (id ^ ": payload = one-shot")
      (Response.fingerprint (one_shot req))
      (Response.fingerprint resp);
    ( Json.to_string ~minify:true resp.Response.payload,
      List.map2 ( - ) (sample ()) before )
  in
  let check label (want_misses, want_hits, want_drops) moved =
    Alcotest.(check (list int))
      (label ^ ": misses, hits, drops") [ want_misses; want_hits; want_drops ]
      moved
  in
  let fig1 = `Example "fig1" in
  let tdma = Bus.Tdma { slot_ms = 2.0 } in
  let caches = Daemon.create_caches () in
  let first, moved = exact caches "fig1-1" fig1 in
  check "first exact" (1, 0, 0) moved;
  let again, moved = exact caches "fig1-2" fig1 in
  check "second exact" (0, 1, 0) moved;
  Alcotest.(check string) "repeated payload bytes" first again;
  let _, moved =
    exact caches "fig1-inline" (`Problem (Ftes_cc.Fig_examples.fig1_problem ()))
  in
  check "inline fig1 shares the entry" (0, 1, 0) moved;
  let _, moved = exact caches "fig1-max" ~strategy:"max" fig1 in
  check "strategy max opens an entry" (1, 0, 0) moved;
  let _, moved = exact caches "fig1-k11" ~kmax:11 fig1 in
  check "kmax 11 opens an entry" (1, 0, 0) moved;
  let _, moved = exact caches "fig1-tdma" ~bus:tdma fig1 in
  check "tdma opens an entry" (1, 0, 0) moved;
  let _, moved = exact caches "fig1-tdma-again" ~bus:tdma fig1 in
  check "tdma hits its entry" (0, 1, 0) moved;
  let _, moved = exact caches "fig1-limit" ~limit:100_000 fig1 in
  check "a limit opens an entry" (1, 0, 0) moved;
  Alcotest.(check int) "exact opens no evaluation bucket" 0
    (Daemon.cache_problems caches);
  let by_slack = Daemon.create_caches () in
  List.iter
    (fun (name, slack) ->
      let _, moved = exact by_slack ("fig1-" ^ name) ~slack fig1 in
      check (name ^ " opens its own entry") (1, 0, 0) moved)
    Helpers.named_slack_policies;
  (* An exhausted search is an error every time: nothing is stored. *)
  let starved =
    ok_exn
      (Request.make ~id:"cc-starved"
         (Request.Exact { limit = Some 1 })
         (`Example "cc"))
  in
  for round = 1 to 2 do
    let before = sample () in
    let resp = daemon_once ~caches starved in
    Alcotest.(check string)
      (Printf.sprintf "limit 1 on cc, round %d: verdict" round)
      "error"
      (Response.verdict_name resp.Response.verdict);
    check
      (Printf.sprintf "limit 1 on cc, round %d" round)
      (1, 0, 0)
      (List.map2 ( - ) (sample ()) before)
  done;
  let bounded = Daemon.create_caches ~max_problems:1 () in
  let _, moved = exact bounded "fig1" fig1 in
  check "bounded: first key stored" (1, 0, 0) moved;
  let _, moved = exact bounded "fig1-min" ~strategy:"min" fig1 in
  check "bounded: second key dropped" (1, 0, 1) moved;
  let _, moved = exact bounded "fig1-min-again" ~strategy:"min" fig1 in
  check "bounded: dropped key re-proved" (1, 0, 1) moved;
  let _, moved = exact bounded "fig1-again" fig1 in
  check "bounded: stored key still hits" (0, 1, 0) moved

let strategies = [| "opt"; "min"; "max" |]

let prop_exact_memo_differential =
  QCheck.Test.make ~count:8
    ~name:"exact: daemon twice == one-shot (seed x strategy x slack x bus)"
    QCheck.(quad small_nat (int_bound 2) (int_bound 2) bool)
    (fun (seed, strategy_i, slack_i, tdma) ->
      let req =
        ok_exn
          (Request.make ~id:"inline-exact"
             ~strategy:strategies.(strategy_i)
             ~slack:(snd (List.nth Helpers.named_slack_policies slack_i))
             ~bus:(if tdma then Bus.Tdma { slot_ms = 2.0 } else Bus.Fcfs)
             (Request.Exact { limit = None })
             (`Problem (Helpers.small_problem ~n:4 seed)))
      in
      let sample = exact_counters () in
      let caches = Daemon.create_caches () in
      let want = Response.fingerprint (one_shot req) in
      let before = sample () in
      let cold = Response.fingerprint (daemon_once ~caches req) in
      let warm = Response.fingerprint (daemon_once ~caches req) in
      let moved = List.map2 ( - ) (sample ()) before in
      if moved <> [ 1; 1; 0 ] then
        QCheck.Test.fail_reportf "misses, hits, drops moved by %s"
          (String.concat ", " (List.map string_of_int moved));
      cold = want && warm = want)

(* The audit runs on whatever [solve] hands back, so a memoised outcome
   is certified on every request: a tampered one is a lint failure. *)
let test_exact_audit_on_solve () =
  let req =
    ok_exn
      (Request.make ~id:"fig1-tampered"
         (Request.Exact { limit = None })
         (`Example "fig1"))
  in
  let honest = Exec.run req in
  Alcotest.(check string) "honest outcome" "feasible"
    (Response.verdict_name (Exec.verdict honest));
  let tampered ~limit ~config problem =
    let o = Ftes_bnb.Bnb.solve ?limit ~config problem in
    let cert = o.Ftes_bnb.Bnb.certificate in
    { o with
      Ftes_bnb.Bnb.certificate =
        { cert with
          Ftes_analyze.Bnb_certificate.heuristic_cost =
            cert.Ftes_analyze.Bnb_certificate.optimal_cost -. 10.0 } }
  in
  Alcotest.(check string) "tampered heuristic cost" "lint-failure"
    (Response.verdict_name (Exec.verdict (Exec.run ~solve:tampered req)))

(* Two problems that differ only in their deadline must not share a
   registry bucket: the eval and probe memos are keyed on the design
   alone.  Sent one after the other through one registry, each payload
   must equal the one a fresh registry answers. *)
let test_registry_separates_problems () =
  let tight =
    ok_exn
      (Ftes_whatif.Delta.apply
         (Ftes_cc.Cruise_control.problem ())
         (Ftes_whatif.Delta.Deadline_scale 0.9))
  in
  let requests =
    [ ok_exn (Request.make ~id:"cc" Request.Optimize (`Example "cc"));
      ok_exn (Request.make ~id:"cc-tight" Request.Optimize (`Problem tight)) ]
  in
  let caches = Daemon.create_caches () in
  List.iter
    (fun req ->
      let shared = daemon_once ~pool:Pool.sequential ~caches req in
      let fresh =
        daemon_once ~pool:Pool.sequential ~caches:(Daemon.create_caches ()) req
      in
      Alcotest.(check string)
        (req.Request.id ^ ": payload through the shared registry")
        (Json.to_string ~minify:true fresh.Response.payload)
        (Json.to_string ~minify:true shared.Response.payload))
    requests

(* --- the serve/* rules fire on corrupted streams --- *)

let envelopes responses =
  List.map
    (fun r -> ok_exn (Json.of_string (Response.to_line r)))
    responses

let subject_of stream =
  Subject.with_responses
    (Subject.of_problem (Ftes_cc.Fig_examples.fig1_problem ()))
    stream

let run_rules stream = Verify.run ~rules:Serve_rules.all (subject_of stream)

let set key value = function
  | Json.Object fields ->
      Json.Object
        (List.map
           (fun (k, v) -> if k = key then (k, value) else (k, v))
           fields)
  | other -> other

let mutate_nth i f stream =
  List.mapi (fun j json -> if j = i then f json else json) stream

let clean_stream =
  lazy
    (let caches = Daemon.create_caches () in
     envelopes
       (Daemon.run_lines ~caches
          (List.map Request.to_string
             [ ok_exn (Request.make ~id:"s0" Request.Analyze (`Example "fig1"));
               ok_exn
                 (Request.make ~id:"s1" Request.Optimize (`Example "fig1"));
               ok_exn
                 (Request.make ~id:"s2" ~strategy:"min" Request.Optimize
                    (`Example "fig1")) ])))

let check_fires name rule stream =
  let report = run_rules stream in
  Alcotest.(check bool) (name ^ ": report rejects") false (Report.ok report);
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s fired" name rule)
    true
    (List.mem rule (Report.fired_rules report))

let test_rules_accept_clean_stream () =
  let report = run_rules (Lazy.force clean_stream) in
  if not (Report.ok report) then
    Alcotest.failf "clean stream rejected:\n%s" (Report.to_text report)

let test_rule_mutations () =
  let stream = Lazy.force clean_stream in
  check_fires "unknown verdict" "serve/envelope"
    (mutate_nth 0 (set "verdict" (Json.String "maybe")) stream);
  check_fires "error message on success" "serve/envelope"
    (mutate_nth 1
       (fun json ->
         match json with
         | Json.Object fields ->
             Json.Object (fields @ [ ("error", Json.String "boom") ])
         | other -> other)
       stream);
  check_fires "payload stripped of its report header" "serve/envelope"
    (mutate_nth 1 (set "payload" (Json.Object [])) stream);
  check_fires "seq reordered" "serve/order"
    (mutate_nth 2 (set "seq" (Json.Number 0.)) stream);
  check_fires "verdict contradicts payload" "serve/verdict"
    (mutate_nth 1 (set "verdict" (Json.String "infeasible")) stream);
  check_fires "negative wall time" "serve/telemetry"
    (mutate_nth 0
       (fun json ->
         match Json.member "telemetry" json with
         | Ok tel -> set "telemetry" (set "wall_ns" (Json.Number (-1.)) tel) json
         | Error _ -> json)
       stream);
  check_fires "cache counter falls along the stream" "serve/telemetry"
    (mutate_nth 2
       (fun json ->
         match Json.member "telemetry" json with
         | Ok tel ->
             set "telemetry"
               (set "sfp_cache"
                  (Json.Object
                     [ ("hits", Json.Number 0.); ("misses", Json.Number 0.) ])
                  tel)
               json
         | Error _ -> json)
       stream)

(* --- forward compatibility: unknown optional request fields --- *)

(* A v1 envelope may grow optional fields (as base_id/delta did); an
   older server must serve such a request, warning about — not
   rejecting — what it does not understand. *)
let test_unknown_field_forward_compat () =
  let line =
    {|{"schema_version": 1, "id": "fc", "command": "analyze", "example": "fig1", "x_future_hint": {"nested": true}}|}
  in
  let warnings = ref [] in
  let req =
    ok_exn
      (Request.of_string ~on_warning:(fun w -> warnings := w :: !warnings) line)
  in
  Alcotest.(check string) "request parsed" "fc" req.Request.id;
  Alcotest.(check bool) "warning names the ignored field" true
    (List.exists (fun w -> Helpers.contains w "x_future_hint") !warnings);
  (* Parsing must also succeed with no warning sink installed. *)
  let _ = ok_exn (Request.of_string line) in
  (* And the daemon serves the request rather than failing it. *)
  match Daemon.run_lines [ line ] with
  | [ r ] ->
      Alcotest.(check bool) "served, not rejected" true
        (r.Response.verdict <> Response.Failed)
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)

(* [Request.make] rejects every value the wire parser rejects, with the
   same message. *)
let test_make_validates_like_wire () =
  let cases =
    [ ( "kmax -1",
        Request.make ~id:"v" ~kmax:(-1) Request.Optimize (`Example "fig1"),
        {|"command": "optimize", "kmax": -1|} );
      ( "tdma slot 0",
        Request.make ~id:"v" ~bus:(Bus.Tdma { slot_ms = 0.0 }) Request.Analyze
          (`Example "fig1"),
        {|"command": "analyze", "bus": {"tdma": {"slot_ms": 0}}|} );
      ( "limit 0",
        Request.make ~id:"v" (Request.Exact { limit = Some 0 }) (`Example "fig1"),
        {|"command": "exact", "limit": 0|} );
      ( "eps -1",
        Request.make ~id:"v"
          (Request.Pareto { eps = -1.0; objectives = Objective.all; ref_cost = None })
          (`Example "fig1"),
        {|"command": "pareto", "eps": -1|} );
      ( "no objectives",
        Request.make ~id:"v"
          (Request.Pareto { eps = 0.0; objectives = []; ref_cost = None })
          (`Example "fig1"),
        {|"command": "pareto", "objectives": ""|} ) ]
  in
  List.iter
    (fun (label, made, fields) ->
      let line =
        Printf.sprintf {|{"schema_version": 1, "id": "v", %s, "example": "fig1"}|}
          fields
      in
      match (made, Request.of_string line) with
      | Error m, Error w -> Alcotest.(check string) (label ^ ": message") w m
      | Ok _, _ -> Alcotest.failf "%s: make accepted it" label
      | _, Ok _ -> Alcotest.failf "%s: the wire accepted it" label)
    cases

(* --- warm what-if requests through the daemon --- *)

module Delta = Ftes_whatif.Delta

(* Payloads embed their subject spelling ("example:fig1" vs "base:b0"),
   which is presentation, not result; normalize it before comparing
   across origins. *)
let payload_sans_subject (r : Response.t) =
  Json.to_string ~minify:true (set "subject" (Json.String "-") r.Response.payload)

let whatif_wire_line = String.concat ""
    [ {|{"schema_version": 1, "id": "w1", "command": "optimize", |};
      {|"base_id": "b0", "delta": {"class": "deadline-scale", "factor": 0.95}}|} ]

let test_whatif_daemon_warm () =
  let caches = Daemon.create_caches () in
  let base_line =
    Request.to_string
      (ok_exn (Request.make ~id:"b0" Request.Optimize (`Example "fig1")))
  in
  (* Same-batch reference: registration is post-batch, so the warm
     request deterministically fails whatever the pool schedule. *)
  (match Daemon.run_lines ~caches [ base_line; whatif_wire_line ] with
  | [ b; w ] ->
      Alcotest.(check bool) "base feasible" true
        (b.Response.verdict = Response.Feasible);
      Alcotest.(check bool) "same-batch base_id rejected" true
        (w.Response.verdict = Response.Failed);
      Alcotest.(check bool) "error names the unknown base" true
        (match w.Response.error with
        | Some e -> Helpers.contains e "b0"
        | None -> false)
  | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
  (* Next batch: the registered walk answers warm. *)
  let warm =
    match Daemon.run_lines ~caches [ whatif_wire_line ] with
    | [ w ] -> w
    | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)
  in
  Alcotest.(check bool) "warm verdict feasible" true
    (warm.Response.verdict = Response.Feasible);
  Alcotest.(check bool) "registry hit recorded" true
    (Daemon.registry_hits caches >= 1);
  (match warm.Response.telemetry with
  | Some { Response.reuse = Some r; _ } ->
      Alcotest.(check string) "reuse block tagged with the delta class"
        "deadline-scale" r.Ftes_whatif.Reuse.delta_class
  | Some { Response.reuse = None; _ } ->
      Alcotest.fail "warm response without a reuse block"
  | None -> Alcotest.fail "daemon response without telemetry");
  (* The warm payload is byte-identical (modulo subject spelling) to a
     cold optimize of the perturbed problem. *)
  let perturbed =
    ok_exn
      (Delta.apply
         (ok_exn (Request.problem_of_example "fig1"))
         (Delta.Deadline_scale 0.95))
  in
  let cold =
    one_shot
      (ok_exn (Request.make ~id:"w1" Request.Optimize (`Problem perturbed)))
  in
  Alcotest.(check string) "warm == cold perturbed payload"
    (payload_sans_subject cold) (payload_sans_subject warm);
  (* And to a one-shot what-if (no base_id: base computed in-request). *)
  let oneshot_warm =
    one_shot
      (ok_exn
         (Request.make ~id:"w1"
            ~whatif:{ Request.base_id = None; delta = Delta.Deadline_scale 0.95 }
            Request.Optimize (`Example "fig1")))
  in
  Alcotest.(check string) "base_id warm == one-shot warm payload"
    (payload_sans_subject oneshot_warm)
    (payload_sans_subject warm)

let test_whatif_daemon_rejects () =
  (* Unknown base in a fresh resident session: a structured error
     naming the id, counted as a registry miss. *)
  let caches = Daemon.create_caches () in
  (match Daemon.run_lines ~caches [ whatif_wire_line ] with
  | [ w ] ->
      Alcotest.(check bool) "unknown base fails" true
        (w.Response.verdict = Response.Failed);
      Alcotest.(check bool) "error mentions the base id" true
        (match w.Response.error with
        | Some e -> Helpers.contains e "b0"
        | None -> false)
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  Alcotest.(check bool) "lookup counted as a registry miss" true
    (Daemon.registry_misses caches >= 1);
  (* A cache-less batch has no registry at all: still structured. *)
  (match Daemon.run_lines [ whatif_wire_line ] with
  | [ w ] ->
      Alcotest.(check bool) "no-registry batch fails" true
        (w.Response.verdict = Response.Failed);
      Alcotest.(check bool) "error explains the missing registry" true
        (match w.Response.error with
        | Some e -> Helpers.contains e "resident"
        | None -> false)
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  (* Without a resident session there is no base resolver at all. *)
  match Request.of_string whatif_wire_line with
  | Ok _ -> Alcotest.fail "base_id parsed without a resolver"
  | Error e ->
      Alcotest.(check bool) "error explains the missing resolver" true
        (Helpers.contains e "resident")

(* The daemon's own self-test must agree with the rules it audits. *)
let test_daemon_audit () =
  let responses, report = Daemon.audit () in
  Alcotest.(check int) "audit stream size" 6 (List.length responses);
  if not (Report.ok report) then
    Alcotest.failf "audit rejected:\n%s" (Report.to_text report)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ftes_serve"
    [ ( "differential",
        [ Alcotest.test_case "fig1 optimize across slack x bus" `Quick
            test_differential_policy_grid;
          Alcotest.test_case "analyze/optimize/exact/pareto" `Quick
            test_differential_commands;
          q prop_differential_inline ] );
      ( "stream",
        [ Alcotest.test_case "1:1, ordered, concurrent pool" `Quick
            test_order_under_pool;
          Alcotest.test_case "mixed stream through one registry" `Slow
            test_mixed_stream_one_registry;
          Alcotest.test_case "malformed lines get structured errors" `Quick
            test_malformed_lines_survive ] );
      ( "verdicts",
        [ Alcotest.test_case "proven-infeasible surfaces as a verdict" `Quick
            test_infeasible_verdict;
          Alcotest.test_case "exit codes of verdicts" `Quick
            test_exit_of_verdict ] );
      ( "wire",
        [ q prop_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick
            test_response_roundtrip;
          Alcotest.test_case "golden cc requests are current" `Quick
            test_golden_requests_current;
          Alcotest.test_case "golden cc stream" `Quick test_golden_cc;
          Alcotest.test_case "unknown optional fields are served" `Quick
            test_unknown_field_forward_compat;
          Alcotest.test_case "make validates like the wire" `Quick
            test_make_validates_like_wire ] );
      ( "caches",
        [ Alcotest.test_case "warm cache is invisible to payload bytes" `Quick
            test_warm_cache_fingerprints;
          Alcotest.test_case "one bucket per problem" `Quick
            test_registry_separates_problems;
          Alcotest.test_case "buckets keyed on problem identity" `Quick
            test_bucket_problem_identity;
          Alcotest.test_case "pre-flight memo" `Quick test_preflight_memo;
          Alcotest.test_case "exact memo" `Quick test_exact_memo;
          q prop_exact_memo_differential;
          Alcotest.test_case "exact audit runs on what solve returns" `Quick
            test_exact_audit_on_solve;
          Alcotest.test_case "base_id warm start through the registry" `Quick
            test_whatif_daemon_warm;
          Alcotest.test_case "what-if rejections are structured" `Quick
            test_whatif_daemon_rejects ] );
      ( "rules",
        [ Alcotest.test_case "clean stream accepted" `Quick
            test_rules_accept_clean_stream;
          Alcotest.test_case "each serve rule fires on its corruption" `Quick
            test_rule_mutations;
          Alcotest.test_case "ftes serve --audit machinery" `Quick
            test_daemon_audit ] ) ]
