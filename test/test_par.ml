(* Determinism harness for the parallel / memoized exploration stack:
   the Pool combinators must be observationally List.map, the SFP and
   candidate-evaluation caches must never change a result, and the
   parallel Design_strategy walk must be bit-identical to the
   sequential one under every slack and bus policy. *)

module Pool = Ftes_par.Pool
module Sfp_cache = Ftes_par.Sfp_cache
module Sfp = Ftes_sfp.Sfp
module Config = Ftes_core.Config
module Design_strategy = Ftes_core.Design_strategy
module Redundancy_opt = Ftes_core.Redundancy_opt
module Design = Ftes_model.Design
module Scheduler = Ftes_sched.Scheduler
module Bus = Ftes_sched.Bus
module Prng = Ftes_util.Prng
module Workload = Ftes_gen.Workload

let pool2 = Pool.create ~domains:2 ()

let pool3 = Pool.create ~domains:3 ()

(* --- Pool combinators --- *)

let prop_map_is_list_map =
  QCheck.Test.make ~count:50 ~name:"Pool.map f = List.map f"
    QCheck.(pair (small_list int) (int_bound 2))
    (fun (xs, extra) ->
      let pool = Pool.create ~domains:(1 + extra) () in
      let f x = (x * x) - (3 * x) in
      Pool.map ~pool f xs = List.map f xs)

let prop_map_weighted =
  QCheck.Test.make ~count:50
    ~name:"Pool.map_weighted f = List.map f (weights only shape wall clock)"
    QCheck.(pair (small_list int) (int_bound 2))
    (fun (xs, extra) ->
      let pool = Pool.create ~domains:(1 + extra) () in
      let f x = (x * 7) - (x * x) in
      (* Adversarial weights: negative, tied and non-monotonic. *)
      let weight x = float_of_int ((x mod 5) - 2) in
      Pool.map_weighted ~pool ~weight f xs = List.map f xs)

let test_map_exception () =
  let raises () =
    Pool.map ~pool:pool2
      (fun x -> if x = 17 then failwith "boom" else x)
      (List.init 64 Fun.id)
  in
  Alcotest.check_raises "worker exception reaches the caller"
    (Failure "boom") (fun () -> ignore (raises ()))

let test_map_seeded_domain_invariant () =
  let xs = List.init 32 Fun.id in
  let run pool =
    Pool.map_seeded ?pool ~prng:(Prng.create 99)
      (fun prng x -> (x, Prng.int prng 1_000_000, Prng.float prng 1.0))
      xs
  in
  let seq = run None in
  Alcotest.(check bool) "2 domains = sequential" true
    (run (Some pool2) = seq);
  Alcotest.(check bool) "3 domains = sequential" true
    (run (Some pool3) = seq)

let test_nested_map_flattens () =
  let outer =
    Pool.map ~pool:pool2
      (fun x ->
        Alcotest.(check bool) "inside worker" true (Pool.in_worker ());
        (* Nested map must degrade to the sequential path, not spawn. *)
        Pool.map ~pool:pool3 (fun y -> x + y) [ 1; 2; 3 ])
      [ 10; 20 ]
  in
  Alcotest.(check bool) "outside worker" false (Pool.in_worker ());
  Alcotest.(check (list (list int))) "nested results"
    [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ]
    outer

(* --- Sfp_cache --- *)

let test_sfp_cache_matches_fresh () =
  let problem = Helpers.synthetic_problem ~seed:7 ~n:14 () in
  let design = Helpers.design_on_all_nodes ~levels:1 ~k:2 problem in
  let cache = Sfp_cache.create () in
  for member = 0 to Design.n_members design - 1 do
    let kmax = Sfp.analysis_kmax design ~member in
    let cached = Sfp_cache.node_analysis cache problem design ~member ~kmax in
    let again = Sfp_cache.node_analysis cache problem design ~member ~kmax in
    let fresh =
      Sfp.node_analysis ~kmax (Design.pfail_vector problem design ~member)
    in
    Alcotest.(check (float Ftes_util.Tolerance.prob_eps))
      (Printf.sprintf "pr0 member %d" member)
      (Sfp.pr_zero fresh) (Sfp.pr_zero cached);
    for k = 0 to kmax do
      Alcotest.(check (float Ftes_util.Tolerance.prob_eps))
        (Printf.sprintf "pr_exceeds member %d k %d" member k)
        (Sfp.pr_exceeds fresh ~k) (Sfp.pr_exceeds cached ~k)
    done;
    Alcotest.(check bool) "second lookup is the same table" true
      (cached == again)
  done;
  Alcotest.(check int) "one miss per member"
    (Design.n_members design)
    (Sfp_cache.misses cache);
  Alcotest.(check int) "one hit per member"
    (Design.n_members design)
    (Sfp_cache.hits cache)

(* --- Memo --- *)

module Memo = Ftes_par.Memo
module Metrics = Ftes_obs.Metrics

module Int_memo = Memo.Make (struct
  type t = int

  let equal = Int.equal

  let hash = Hashtbl.hash
end)

let memo_family = Memo.family "test.memo"

let bindings memo =
  List.sort compare (Int_memo.fold (fun k v acc -> (k, v) :: acc) memo [])

let prop_memo_migrate_paths_agree =
  QCheck.Test.make ~count:100
    ~name:"Memo.migrate: same_keys copy = rehash (bindings, kept/dropped)"
    QCheck.(small_list (pair small_int small_int))
    (fun kvs ->
      let memo = Int_memo.create memo_family in
      List.iter (fun (k, v) -> ignore (Int_memo.add memo k v)) kvs;
      let source = bindings memo in
      let keep k v = if (k + v) mod 3 = 0 then None else Some (k, (2 * v) + 1) in
      let copied, copied_counts = Int_memo.migrate ~same_keys:true ~keep memo in
      let rehashed, rehashed_counts = Int_memo.migrate ~keep memo in
      bindings copied = bindings rehashed
      && copied_counts = rehashed_counts
      && fst copied_counts + snd copied_counts = List.length source
      && bindings memo = source)

let test_memo_peek_uncounted () =
  let memo = Int_memo.create memo_family in
  Alcotest.(check int) "add stores" 10 (Int_memo.add memo 1 10);
  let lookups () = Metrics.counter_value memo_family.Memo.lookups in
  let before = lookups () in
  Alcotest.(check (option int)) "peek sees the binding" (Some 10)
    (Int_memo.peek memo 1);
  Alcotest.(check (option int)) "peek misses quietly" None
    (Int_memo.peek memo 2);
  Alcotest.(check int) "peek leaves lookups alone" before (lookups ());
  Alcotest.(check int) "no instance hit" 0 (Int_memo.hits memo);
  Alcotest.(check int) "no instance miss" 0 (Int_memo.misses memo);
  Alcotest.(check (option int)) "find sees the binding" (Some 10)
    (Int_memo.find memo 1);
  Alcotest.(check int) "find is counted" (before + 1) (lookups ());
  Alcotest.(check int) "one instance hit" 1 (Int_memo.hits memo)

let test_memo_capacity_zero () =
  let family = Memo.family "test.memo_zero" in
  let memo = Int_memo.create ~capacity:0 family in
  for k = 1 to 5 do
    Alcotest.(check (option int)) "never stored" None (Int_memo.find memo k);
    Alcotest.(check int) "add hands its value back" (7 * k)
      (Int_memo.add memo k (7 * k))
  done;
  Alcotest.(check int) "nothing retained" 0 (Int_memo.length memo);
  Alcotest.(check int) "five misses" 5 (Int_memo.misses memo);
  Alcotest.(check int) "one drop per miss" 5
    (Metrics.counter_value family.Memo.capacity_drops);
  Alcotest.(check int) "family misses" 5
    (Metrics.counter_value family.Memo.misses)

let test_memo_capacity_validation () =
  let raises name f =
    Alcotest.check_raises name (Invalid_argument "Memo.create: negative capacity")
      (fun () -> ignore (f ()))
  in
  raises "negative memo capacity" (fun () ->
      Int_memo.create ~capacity:(-1) memo_family);
  raises "negative SFP cache capacity" (fun () -> Sfp_cache.create ~capacity:(-1) ());
  raises "negative evaluation cache capacity" (fun () ->
      Redundancy_opt.create_cache ~capacity:(-3) ());
  Alcotest.(check int) "capacity 0 is accepted" 0
    (Int_memo.length (Int_memo.create ~capacity:0 memo_family));
  ignore (Redundancy_opt.create_cache ~capacity:0 ())

let test_memo_concurrent_add_shares () =
  let memo = Int_memo.create memo_family in
  let values =
    Pool.map ~pool:pool2
      (fun i ->
        match Int_memo.find memo 42 with
        | Some v -> v
        | None -> Int_memo.add memo 42 (ref i))
      (List.init 64 Fun.id)
  in
  let first = List.hd values in
  Alcotest.(check bool) "every caller got the stored value" true
    (List.for_all (fun v -> v == first) values);
  Alcotest.(check int) "one binding" 1 (Int_memo.length memo)

(* --- Design_strategy determinism --- *)

let slack_policies =
  [ ("shared", Scheduler.Shared);
    ("conservative", Scheduler.Conservative);
    ("dedicated", Scheduler.Dedicated) ]

let bus_policies =
  [ ("fcfs", Bus.Fcfs); ("tdma", Bus.Tdma { slot_ms = 2.0 }) ]

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

let problem_of_seed ?n_processes seed =
  let n_processes = Option.value n_processes ~default:(8 + (seed mod 5)) in
  let spec = Workload.generate_spec ~seed ~index:0 ~n_processes () in
  Workload.problem_of_spec { Workload.ser = 1e-11; hpd = 0.25 } spec

(* A cache that retains nothing: every lookup misses and recomputes,
   the unmemoized reference path. *)
let unmemoized () = Redundancy_opt.create_cache ~capacity:0 ()

(* The walk's own counters: the ordered merge alone moves them, so a
   pooled walk must read exactly what a sequential one reads. *)
let walk_counters =
  List.map Metrics.counter
    [ "strategy.explored"; "strategy.pruned"; "analyze.pruned_architectures" ]

(* A pre-flight-pruned walk's fingerprint together with the deltas of
   the walk counters it moved. *)
let walk ?pool ?cache ~config problem =
  let preflight =
    Ftes_analyze.Preflight.run ~kmax:config.Config.kmax
      ~slack:config.Config.slack problem
  in
  let before = List.map Metrics.counter_value walk_counters in
  let solution = Design_strategy.run ?pool ?cache ~preflight ~config problem in
  ( fingerprint solution,
    List.map2 (fun c b -> Metrics.counter_value c - b) walk_counters before )

let parallel_identical problem =
  List.for_all
    (fun (_, slack) ->
      List.for_all
        (fun (_, bus) ->
          let config = Config.(default |> with_slack slack |> with_bus bus) in
          walk ~cache:(unmemoized ()) ~config problem
          = walk ~pool:pool2 ~config problem)
        bus_policies)
    slack_policies

let cc_parallel_identical =
  lazy (parallel_identical (Ftes_cc.Cruise_control.problem ()))

let prop_strategy_parallel_identical =
  QCheck.Test.make ~count:3
    ~name:
      "parallel memoized Design_strategy.run = sequential unmemoized, walk \
       counters included (cc + 20-process apps, pre-flight on, all slack x \
       bus policies)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      Lazy.force cc_parallel_identical
      && parallel_identical (problem_of_seed ~n_processes:20 seed))

let prop_memoization_invisible =
  QCheck.Test.make ~count:10
    ~name:"Sfp_cache / eval cache on = off (sequential, exact)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let problem = problem_of_seed seed in
      let on = Design_strategy.run ~config:Config.default problem in
      let off =
        Design_strategy.run ~cache:(unmemoized ()) ~config:Config.default
          problem
      in
      fingerprint on = fingerprint off)

let test_policy_sweep_shared_cache () =
  let problem = problem_of_seed 321 in
  let cache = Redundancy_opt.create_cache () in
  List.iter
    (fun policy ->
      let config = Config.with_hardening policy Config.default in
      let shared = Design_strategy.run ~cache ~config problem in
      let fresh = Design_strategy.run ~cache:(unmemoized ()) ~config problem in
      Alcotest.(check bool)
        (Config.policy_name policy ^ " with shared cache")
        true
        (fingerprint shared = fingerprint fresh))
    [ Config.Fixed_min; Config.Fixed_max; Config.Optimize ]

(* Resetting the evaluation statistics zeroes the whole [evals.*]
   family, capacity drops included, so a capped run followed by a reset
   cannot leave more drops than misses behind. *)
let test_reset_eval_stats_clears_drops () =
  let drops () =
    Option.value ~default:0
      (Metrics.find_counter (Metrics.snapshot ()) "evals.capacity_drops")
  in
  let before = drops () in
  let problem = problem_of_seed 321 in
  ignore
    (Design_strategy.run
       ~cache:(Redundancy_opt.create_cache ~capacity:1 ())
       ~config:Config.default problem);
  Alcotest.(check bool) "the capped run dropped inserts" true
    (drops () > before);
  Redundancy_opt.reset_eval_stats ();
  let subject =
    Ftes_verify.Subject.with_metrics
      (Ftes_verify.Subject.of_problem problem)
      (Metrics.snapshot ())
  in
  let report =
    Ftes_verify.Verify.run
      ~rules:(Option.to_list (Ftes_verify.Verify.find "obs/cache-capacity"))
      subject
  in
  if not (Ftes_verify.Report.ok report) then
    Alcotest.failf "obs/cache-capacity rejected the snapshot:\n%s"
      (Ftes_verify.Report.to_text report)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ftes_par"
    [ ("pool",
       [ q prop_map_is_list_map;
         q prop_map_weighted;
         Alcotest.test_case "exception propagation" `Quick test_map_exception;
         Alcotest.test_case "map_seeded invariant across domain counts"
           `Quick test_map_seeded_domain_invariant;
         Alcotest.test_case "nested maps flatten" `Quick
           test_nested_map_flattens ]);
      ("sfp-cache",
       [ Alcotest.test_case "cached tables match fresh analysis" `Quick
           test_sfp_cache_matches_fresh ]);
      ("memo",
       [ q prop_memo_migrate_paths_agree;
         Alcotest.test_case "peek is uncounted" `Quick test_memo_peek_uncounted;
         Alcotest.test_case "capacity 0 stores nothing" `Quick
           test_memo_capacity_zero;
         Alcotest.test_case "capacity validation" `Quick
           test_memo_capacity_validation;
         Alcotest.test_case "concurrent add shares one value" `Quick
           test_memo_concurrent_add_shares;
         Alcotest.test_case "reset_eval_stats clears capacity drops" `Quick
           test_reset_eval_stats_clears_drops ]);
      ("determinism",
       [ q prop_strategy_parallel_identical;
         q prop_memoization_invisible;
         Alcotest.test_case "policy sweep over one shared cache" `Quick
           test_policy_sweep_shared_cache ]) ]
