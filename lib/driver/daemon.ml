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

(* --- shared evaluation caches --- *)

module String_memo = Ftes_par.Memo.Make (struct
  type t = string

  let equal = String.equal

  let hash = Hashtbl.hash
end)

type caches = {
  buckets : Redundancy_opt.cache String_memo.t;
  recorded : Design_strategy.recorded String_memo.t;
      (* recorded optimize walks by request id — the base registry
         what-if requests warm-start from via "base_id". *)
}

let buckets_family = Ftes_par.Memo.family "serve.buckets"

let registry_family = Ftes_par.Memo.family "serve.registry"

let create_caches ?(max_problems = 64) () =
  { buckets = String_memo.create ~capacity:max_problems buckets_family;
    recorded = String_memo.create ~capacity:max_problems registry_family }

let cache_problems t = String_memo.length t.buckets

let cache_hits t = String_memo.hits t.buckets

let cache_misses t = String_memo.misses t.buckets

let registry_hits t = String_memo.hits t.recorded

let registry_misses t = String_memo.misses t.recorded

(* A Redundancy_opt.cache may be shared by runs over the same problem
   whose configs agree except in the hardening policy, so the bucket
   key is (problem, slack, bus, kmax) with the strategy excluded.  The
   problem travels as its [Problem_io.canonical_key] — inline and
   built-in spellings of the same instance land in the same bucket. *)
let bucket_key (req : Request.t) =
  let config = req.Request.config in
  let slack =
    match config.Config.slack with
    | Scheduler.Shared -> Some "shared"
    | Scheduler.Conservative -> Some "conservative"
    | Scheduler.Dedicated -> Some "dedicated"
    | Scheduler.Per_process _ | Scheduler.Checkpointed _ ->
        (* Not wire-reachable; never share rather than mis-share. *)
        None
  in
  Option.map
    (fun slack ->
      let bus =
        match config.Config.bus with
        | Bus.Fcfs -> "fcfs"
        | Bus.Tdma { slot_ms } -> Printf.sprintf "tdma:%h" slot_ms
      in
      Printf.sprintf "%s|%s|%d|%s" slack bus config.Config.kmax
        (Problem_io.canonical_key req.Request.problem))
    slack

let shared_cache caches (req : Request.t) =
  match caches with
  | None -> None
  | Some t -> (
      match req.Request.command with
      | Request.Analyze | Request.Exact _ ->
          (* No candidate evaluations to share. *)
          None
      | Request.Optimize | Request.Pareto _ ->
          Option.map
            (fun key ->
              match String_memo.find t.buckets key with
              | Some cache -> cache
              | None ->
                  (* Built outside the lock: concurrent first requests
                     may each build one, and all but the stored one are
                     dropped unused. *)
                  String_memo.add t.buckets key (Redundancy_opt.create_cache ()))
            (bucket_key req))

(* --- one batch --- *)

let best_effort_id line =
  match Json.of_string line with
  | Error _ -> ""
  | Ok json -> (
      match Json.field "id" Json.to_string_value json with
      | Ok id -> id
      | Error _ -> "")

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
  let id, verdict, payload, error, warm =
    match Request.of_string ~on_warning:ignore ?resolve_base line with
    | Error msg ->
        (best_effort_id line, Response.Failed, Json.Object [], Some msg, None)
    | Ok req -> (
        match
          Exec.run ?cache:(shared_cache caches req) ?recorded_of:lookup req
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

let run_lines ?pool ?caches ?(telemetry = true) ?(first_seq = 0) lines =
  let enqueued_ns = Clock.now_ns () in
  let executed = Pool.map ?pool (execute ?caches ~enqueued_ns) lines in
  (* Register this batch's recorded optimize walks, sequentially and
     in request order, only after the whole batch executed: a request
     naming a same-batch base_id therefore fails deterministically,
     whatever pool schedule ran the batch.  First registration wins,
     so a duplicated request id cannot retarget an existing base. *)
  (match caches with
  | None -> ()
  | Some t ->
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

(* --- the loop --- *)

type stats = { requests : int; failed : int; batches : int }

let read_batch ic n =
  let rec go n acc =
    if n = 0 then List.rev acc
    else
      match In_channel.input_line ic with
      | None -> List.rev acc
      | Some line -> go (n - 1) (line :: acc)
  in
  go n []

let serve ?pool ?caches ?telemetry ?(max_batch = 16) ic oc =
  if max_batch < 1 then invalid_arg "Daemon.serve: max_batch must be positive";
  let rec loop stats seq =
    match read_batch ic max_batch with
    | [] -> stats
    | lines ->
        let responses =
          run_lines ?pool ?caches ?telemetry ~first_seq:seq lines
        in
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
