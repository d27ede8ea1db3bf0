module Json = Ftes_util.Json
module Config = Ftes_core.Config
module Redundancy_opt = Ftes_core.Redundancy_opt
module Design_strategy = Ftes_core.Design_strategy
module Problem_io = Ftes_model.Problem_io
module Scheduler = Ftes_sched.Scheduler
module Bus = Ftes_sched.Bus
module Pool = Ftes_par.Pool
module Sfp_cache = Ftes_par.Sfp_cache
module Clock = Ftes_obs.Clock
module Span = Ftes_obs.Span

(* --- shared evaluation caches --- *)

module String_memo = Ftes_par.Memo.Make (struct
  type t = string

  let equal = String.equal

  let hash = Hashtbl.hash
end)

(* A Redundancy_opt.cache may be shared by runs over the same problem
   whose configs agree except in the hardening policy, so a bucket is
   keyed on (slack, bus, kmax, problem) with the strategy excluded.
   The problem compares by {!Problem_io.equal} — equal minified
   documents, decided without rendering either — so inline and
   built-in spellings of one instance land in the same bucket.  Only
   the wire-reachable slack policies get a key. *)
type bucket = {
  slack : Scheduler.slack_mode;  (* Shared, Conservative or Dedicated *)
  bus : Bus.policy;
  kmax : int;
  problem : Ftes_model.Problem.t;
}

let same_bus a b =
  match (a, b) with
  | Bus.Fcfs, Bus.Fcfs -> true
  | Bus.Tdma { slot_ms = x }, Bus.Tdma { slot_ms = y } ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | (Bus.Fcfs | Bus.Tdma _), _ -> false

module Bucket = struct
  type t = bucket

  let equal a b =
    a.slack = b.slack && a.kmax = b.kmax && same_bus a.bus b.bus
    && Problem_io.equal a.problem b.problem

  let hash k =
    let bus =
      match k.bus with
      | Bus.Fcfs -> 0
      | Bus.Tdma { slot_ms } -> Int64.to_int (Int64.bits_of_float slot_ms)
    in
    Hashtbl.hash (k.slack, bus, k.kmax, Problem_io.hash k.problem)
end

module Bucket_memo = Ftes_par.Memo.Make (Bucket)

(* A pre-flight report is a pure function of (kmax, re-execution
   bucket, problem), so an analyze request on a resident problem reuses
   the report an earlier one derived.  The problem compares by identity,
   as in the buckets. *)
type preflight_key = {
  pf_kmax : int;
  pf_reexec : bool;
  pf_problem : Ftes_model.Problem.t;
}

module Preflight_memo = Ftes_par.Memo.Make (struct
  type t = preflight_key

  let equal a b =
    a.pf_kmax = b.pf_kmax && a.pf_reexec = b.pf_reexec
    && Problem_io.equal a.pf_problem b.pf_problem

  let hash k =
    Hashtbl.hash (k.pf_kmax, k.pf_reexec, Problem_io.hash k.pf_problem)
end)

(* An exact outcome is a pure function of (config, limit, problem).
   Unlike a bucket, the key holds the hardening policy and the tabu
   iteration cap too: the greedy walk that seeds the incumbent reads
   both, and its cost is the certificate's [heuristic_cost].  The limit
   stays in the key although a finished search does not depend on it,
   so a key never stands for more than one request's budget. *)
type exact_key = {
  ex_bucket : bucket;
  ex_hardening : Config.hardening_policy;
  ex_max_iterations : int;
  ex_limit : int option;
}

module Exact_memo = Ftes_par.Memo.Make (struct
  type t = exact_key

  let equal a b =
    a.ex_hardening = b.ex_hardening
    && a.ex_max_iterations = b.ex_max_iterations
    && a.ex_limit = b.ex_limit
    && Bucket.equal a.ex_bucket b.ex_bucket

  let hash k =
    Hashtbl.hash
      (Bucket.hash k.ex_bucket, k.ex_hardening, k.ex_max_iterations, k.ex_limit)
end)

type caches = {
  buckets : Redundancy_opt.cache Bucket_memo.t;
  recorded : Design_strategy.recorded String_memo.t;
      (* recorded optimize walks by request id — the base registry
         what-if requests warm-start from via "base_id". *)
  preflights : Ftes_analyze.Preflight.t Preflight_memo.t;
  exact : Ftes_bnb.Bnb.outcome Exact_memo.t;
}

let buckets_family = Ftes_par.Memo.family "serve.buckets"

let registry_family = Ftes_par.Memo.family "serve.registry"

let preflights_family = Ftes_par.Memo.family "serve.preflights"

let exact_family = Ftes_par.Memo.family "serve.exact"

let create_caches ?(max_problems = 64) () =
  { buckets = Bucket_memo.create ~capacity:max_problems buckets_family;
    recorded = String_memo.create ~capacity:max_problems registry_family;
    preflights =
      Preflight_memo.create ~capacity:max_problems preflights_family;
    exact = Exact_memo.create ~capacity:max_problems exact_family }

let cache_problems t = Bucket_memo.length t.buckets

let cache_hits t = Bucket_memo.hits t.buckets

let cache_misses t = Bucket_memo.misses t.buckets

let registry_hits t = String_memo.hits t.recorded

let registry_misses t = String_memo.misses t.recorded

let bucket_key ~(config : Config.t) problem =
  match config.Config.slack with
  | (Scheduler.Shared | Scheduler.Conservative | Scheduler.Dedicated) as slack
    ->
      Some
        { slack; bus = config.Config.bus; kmax = config.Config.kmax; problem }
  | Scheduler.Per_process _ | Scheduler.Checkpointed _ ->
      (* Not wire-reachable; never share rather than mis-share. *)
      None

let shared_cache caches (req : Request.t) =
  match caches with
  | None -> None
  | Some t -> (
      match req.Request.command with
      | Request.Analyze | Request.Exact _ ->
          (* No candidate evaluations to share: analyze and exact reuse
             whole answers through [resident_preflight] and
             [resident_exact] instead. *)
          None
      | Request.Optimize | Request.Pareto _ ->
          Option.map
            (fun key ->
              match Bucket_memo.find t.buckets key with
              | Some cache -> cache
              | None ->
                  (* Built outside the lock: concurrent first requests
                     may each build one, and all but the stored one are
                     dropped unused. *)
                  Bucket_memo.add t.buckets key (Redundancy_opt.create_cache ()))
            (bucket_key ~config:req.Request.config req.Request.problem))

let resident_preflight t ~kmax ~reexec problem =
  let key = { pf_kmax = kmax; pf_reexec = reexec; pf_problem = problem } in
  match Preflight_memo.find t.preflights key with
  | Some report -> report
  | None ->
      Preflight_memo.add t.preflights key
        (Ftes_analyze.Preflight.run ~kmax ~reexec problem)

(* Only a finished proof is stored: [Bnb.Budget_exhausted] escapes
   before [add], so an exhausted search is re-run (and re-exhausted) on
   every request.  The caller audits whatever this returns. *)
let resident_exact t ~limit ~config problem =
  let solve () = Ftes_bnb.Bnb.solve ?limit ~config problem in
  match bucket_key ~config problem with
  | None -> solve ()
  | Some bucket -> (
      let key =
        { ex_bucket = bucket;
          ex_hardening = config.Config.hardening;
          ex_max_iterations = config.Config.max_iterations;
          ex_limit = limit }
      in
      match Exact_memo.find t.exact key with
      | Some outcome -> outcome
      | None -> Exact_memo.add t.exact key (solve ()))

(* --- one batch --- *)

(* A line the reader cut at [max_line_bytes] is answered without a
   parse. *)
type line = Line of string | Oversized

let max_line_bytes = 8 * 1024 * 1024

let oversized_message =
  Printf.sprintf "request line exceeds %d bytes" max_line_bytes

let execute ?caches ~enqueued_ns line =
  let started_ns = Clock.now_ns () in
  (* One counted registry probe per distinct base_id per request,
     shared between parse-time problem resolution and exec-time base
     resolution — a problem-less "base_id" request costs one lookup,
     not two. *)
  let lookup =
    Option.map
      (fun t ->
        let memo = ref [] in
        fun id ->
          match List.assoc_opt id !memo with
          | Some r -> r
          | None ->
              let r = String_memo.find t.recorded id in
              memo := (id, r) :: !memo;
              r)
      caches
  in
  let resolve_base =
    Option.map
      (fun find id ->
        Option.map (fun r -> r.Design_strategy.rec_problem) (find id))
      lookup
  in
  (* The line is parsed once: a rejected request still echoes the id
     its JSON carries, if any. *)
  let json, parsed =
    Span.with_ ~name:"driver/validate" (fun () ->
        let json = Json.of_string line in
        ( json,
          Result.bind json (Request.of_json ~on_warning:ignore ?resolve_base) ))
  in
  let id, verdict, payload, error, warm =
    match parsed with
    | Error msg ->
        let id =
          match Result.bind json (Json.field "id" Json.to_string_value) with
          | Ok id -> id
          | Error _ -> ""
        in
        (id, Response.Failed, Json.Object [], Some msg, None)
    | Ok req -> (
        Span.with_ ~name:"driver/dispatch" @@ fun () ->
        match
          Exec.run ?cache:(shared_cache caches req) ?recorded_of:lookup
            ?preflight:(Option.map resident_preflight caches)
            ?solve:(Option.map resident_exact caches)
            req
        with
        | exception Exec.Rejected msg ->
            (req.Request.id, Response.Failed, Json.Object [], Some msg, None)
        | exception Ftes_bnb.Bnb.Budget_exhausted n ->
            ( req.Request.id,
              Response.Failed,
              Json.Object [],
              Some
                (Printf.sprintf
                   "candidate budget exhausted after %d full evaluations \
                    (raise the limit); no optimality claim is made"
                   n),
              None )
        | exception exn ->
            ( req.Request.id,
              Response.Failed,
              Json.Object [],
              Some (Printexc.to_string exn),
              None )
        | outcome ->
            let warm =
              match outcome with
              | Exec.Optimized { recorded; reuse; _ } -> Some (recorded, reuse)
              | _ -> None
            in
            ( req.Request.id,
              Exec.verdict outcome,
              Exec.payload req outcome,
              None,
              warm ))
  in
  let finished_ns = Clock.now_ns () in
  ( id,
    verdict,
    payload,
    error,
    started_ns - enqueued_ns,
    finished_ns - started_ns,
    warm )

let execute_item ?caches ~enqueued_ns = function
  | Line line -> execute ?caches ~enqueued_ns line
  | Oversized ->
      ( "",
        Response.Failed,
        Json.Object [],
        Some oversized_message,
        Clock.now_ns () - enqueued_ns,
        0,
        None )

let run_items ?pool ?caches ?(telemetry = true) ?(first_seq = 0) items =
  let enqueued_ns = Clock.now_ns () in
  let executed = Pool.map ?pool (execute_item ?caches ~enqueued_ns) items in
  (* Register this batch's recorded optimize walks, sequentially and
     in request order, only after the whole batch executed: a request
     naming a same-batch base_id therefore fails deterministically,
     whatever pool schedule ran the batch.  First registration wins,
     so a duplicated request id cannot retarget an existing base. *)
  (match caches with
  | None -> ()
  | Some t ->
      Span.with_ ~name:"driver/register" @@ fun () ->
      List.iter
        (fun (id, _, _, _, _, _, warm) ->
          match warm with
          | Some (recorded, _) when id <> "" -> (
              match String_memo.find t.recorded id with
              | Some _ -> ()
              | None -> ignore (String_memo.add t.recorded id recorded))
          | _ -> ())
        executed);
  (* One batch-end sample of the process-wide counters for every batch
     member: completion order under the pool is unobservable, and the
     counters stay monotone in seq across batches because they only
     ever grow.  The registry is sampled after the registrations above
     for the same reason. *)
  let sample =
    if not telemetry then fun _ _ _ -> None
    else begin
      let totals = Sfp_cache.totals () in
      let evals = Redundancy_opt.eval_stats () in
      let problems =
        match caches with Some t -> cache_problems t | None -> 0
      in
      let reg_hits, reg_misses =
        match caches with
        | Some t -> (registry_hits t, registry_misses t)
        | None -> (0, 0)
      in
      fun queue_wait_ns wall_ns reuse ->
        Some
          { Response.queue_wait_ns = max 0 queue_wait_ns;
            wall_ns = max 0 wall_ns;
            sfp_hits = totals.Sfp_cache.total_hits;
            sfp_misses = totals.Sfp_cache.total_misses;
            eval_hits = evals.Redundancy_opt.hits;
            eval_misses = evals.Redundancy_opt.misses;
            cache_problems = problems;
            registry_hits = reg_hits;
            registry_misses = reg_misses;
            reuse }
    end
  in
  List.mapi
    (fun i (id, verdict, payload, error, queue_wait_ns, wall_ns, warm) ->
      let reuse = match warm with Some (_, reuse) -> reuse | None -> None in
      { Response.id;
        seq = first_seq + i;
        verdict;
        payload;
        error;
        telemetry = sample queue_wait_ns wall_ns reuse })
    executed

let run_lines ?pool ?caches ?telemetry ?first_seq lines =
  run_items ?pool ?caches ?telemetry ?first_seq
    (List.map (fun line -> Line line) lines)

(* --- the loop --- *)

type stats = { requests : int; failed : int; batches : int }

(* [In_channel.input_line] with a ceiling: past [max_line_bytes] the
   rest of the line is read and dropped unbuffered, so an oversized
   line costs time linear in its bytes and no memory beyond the cap. *)
let read_line ic buf =
  Buffer.clear buf;
  let rec keep () =
    match In_channel.input_char ic with
    | None ->
        if Buffer.length buf = 0 then None
        else Some (Line (Buffer.contents buf))
    | Some '\n' -> Some (Line (Buffer.contents buf))
    | Some c ->
        if Buffer.length buf < max_line_bytes then begin
          Buffer.add_char buf c;
          keep ()
        end
        else drop ()
  and drop () =
    match In_channel.input_char ic with
    | None | Some '\n' -> Some Oversized
    | Some _ -> drop ()
  in
  keep ()

let read_batch ic n =
  let buf = Buffer.create 4096 in
  let rec go n acc =
    if n = 0 then List.rev acc
    else
      match read_line ic buf with
      | None -> List.rev acc
      | Some item -> go (n - 1) (item :: acc)
  in
  go n []

let serve ?pool ?caches ?(max_batch = 16) ic oc =
  if max_batch < 1 then invalid_arg "Daemon.serve: max_batch must be positive";
  let rec loop stats seq =
    match read_batch ic max_batch with
    | [] -> stats
    | items ->
        let responses = run_items ?pool ?caches ~first_seq:seq items in
        List.iter
          (fun r ->
            output_string oc (Response.to_line r);
            output_char oc '\n')
          responses;
        flush oc;
        let failures =
          List.length
            (List.filter
               (fun r -> r.Response.verdict = Response.Failed)
               responses)
        in
        loop
          { requests = stats.requests + List.length responses;
            failed = stats.failed + failures;
            batches = stats.batches + 1 }
          (seq + List.length responses)
  in
  loop { requests = 0; failed = 0; batches = 0 } 0

(* --- self-test --- *)

let audit ?pool ?caches () =
  let req ?whatif id command example =
    match Request.make ~id ?whatif command (`Example example) with
    | Ok r -> Request.to_string r
    | Error e -> failwith ("Daemon.audit: " ^ e)
  in
  let lines =
    [ req "audit-analyze" Request.Analyze "fig1";
      req "audit-optimize" Request.Optimize "cc";
      (* An exact request, so the snapshot reconciles the serve.exact
         memo family too. *)
      req "audit-exact" (Request.Exact { limit = None }) "fig1";
      req "audit-pareto"
        (Request.Pareto
           { eps = 0.0;
             objectives = Ftes_pareto.Objective.all;
             ref_cost = None })
        "fig1";
      (* A one-shot what-if (no base_id: cold base walk plus warm
         rerun in the same request) so the audited stream exercises
         the whatif/* rules. *)
      req "audit-whatif"
        ~whatif:
          { Request.base_id = None;
            delta = Ftes_whatif.Delta.Deadline_scale 0.95 }
        Request.Optimize "fig1";
      (* A deliberately malformed line: the audited stream must show
         the daemon answering garbage with a structured error. *)
      "{\"schema_version\": 1, \"id\": \"audit-bad\", \"command\": \
       \"frobnicate\", \"example\": \"fig1\"}" ]
  in
  let responses = run_lines ?pool ?caches lines in
  (* Audit the actual wire bytes, not the in-memory values: re-parse
     each emitted line as the serve rules will see it. *)
  let envelopes =
    List.map
      (fun r ->
        match Json.of_string (Response.to_line r) with
        | Ok json -> json
        | Error e -> failwith ("Daemon.audit: unparseable response: " ^ e))
      responses
  in
  (* The batch has returned, so every memo family (SFP tables,
     evaluations, the daemon's own registries) is quiescent: its
     counters must reconcile exactly. *)
  let subject =
    Ftes_verify.Subject.with_metrics
      (Ftes_verify.Subject.with_responses
         (Ftes_verify.Subject.of_problem (Ftes_cc.Fig_examples.fig1_problem ()))
         envelopes)
      (Ftes_obs.Metrics.snapshot ())
  in
  let cache_rules =
    List.filter
      (fun r ->
        List.mem r.Ftes_verify.Rule.id
          [ "obs/cache-consistency"; "obs/cache-capacity" ])
      Ftes_verify.Obs_rules.all
  in
  ( responses,
    Ftes_verify.Verify.run
      ~rules:
        (Ftes_verify.Serve_rules.all @ Ftes_verify.Whatif_rules.all
       @ cache_rules)
      subject )
