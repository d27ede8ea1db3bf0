(* Tests for the exact branch-and-bound optimizer ([Ftes_bnb]): the
   differential harness against the reference enumeration, the
   optimality-gap golden table, the certificate JSON round-trip and
   mutation tests for every bnb/* verifier rule.

   The gap table is kept as a golden CSV under [golden/]; to
   regenerate after an intentional heuristic or bound change:

     FTES_REGEN_GOLDEN=$PWD/test/golden dune exec test/test_bnb.exe *)

module Bnb = Ftes_bnb.Bnb
module Cert = Ftes_analyze.Bnb_certificate
module Cert_io = Ftes_analyze.Bnb_certificate_io
module Preflight = Ftes_analyze.Preflight
module Config = Ftes_core.Config
module Exhaustive = Ftes_oracle.Exhaustive
module Redundancy_opt = Ftes_core.Redundancy_opt
module Design_strategy = Ftes_core.Design_strategy
module Subject = Ftes_verify.Subject
module Verify = Ftes_verify.Verify
module Report = Ftes_verify.Report
module Diagnostic = Ftes_verify.Diagnostic
module Workload = Ftes_gen.Workload
module Csv = Ftes_util.Csv
module Json = Ftes_util.Json

let cost_of = function
  | Some r -> r.Redundancy_opt.cost
  | None -> infinity

let sl_of = function
  | Some r -> r.Redundancy_opt.schedule_length
  | None -> infinity

(* The error diagnostics of the audit [Exec] attaches to an exact
   answer; empty when it passes. *)
let audit_errors config problem outcome =
  String.concat "; "
    (List.map
       (fun d -> d.Diagnostic.rule ^ ": " ^ d.Diagnostic.detail)
       (Report.errors (Ftes_driver.Exec.audit_exact ~config problem outcome)))

let audit_ok config problem outcome = audit_errors config problem outcome = ""

(* A library with a bitwise twin of node 0, so the symmetry pruner has
   something to skip. *)
let duplicated_library seed =
  let base = Helpers.small_problem ~n:4 ~lib:2 ~levels:2 seed in
  let lib = base.Ftes_model.Problem.library in
  let twin = { lib.(0) with Ftes_model.Platform.node_name = "twin" } in
  Ftes_model.Problem.make ~app:base.Ftes_model.Problem.app
    ~library:(Array.append lib [| twin |])

(* The feasible workhorse fixture: non-trivial re-execution counts in
   the incumbent and cost-bound premises in the certificate. *)
let fixture =
  lazy
    (let problem = Helpers.small_problem ~n:4 ~lib:3 ~levels:2 42 in
     let config = Config.default in
     (problem, config, Bnb.solve ~config problem))

(* --- golden optimality-gap table --- *)

let golden_name = "bnb_gap_cc.csv"

(* One row per instance: the greedy heuristic's cost against a
   certified lower bound — the proven optimum where the exact search
   is tractable (bnb-exact), the pre-flight analyzer's cost bound on
   the full cruise controller, whose 3^32-mapping space no enumeration
   closes (preflight-lb).  Both sides print round-trippable decimals,
   so the golden comparison is exact. *)
let gap_rows () =
  let heuristic config problem =
    match Design_strategy.run ~config problem with
    | Some s -> s.Design_strategy.result.Redundancy_opt.cost
    | None -> infinity
  in
  let fmt v = Printf.sprintf "%.17g" v in
  let config = Config.default in
  let cc = Ftes_cc.Cruise_control.problem () in
  let cc_lb =
    (Preflight.run ~kmax:config.Config.kmax
       ~reexec:(Preflight.reexec_of_slack config.Config.slack)
       cc)
      .Preflight.cost_lower_bound
  in
  let cc_heuristic = heuristic config cc in
  let cc_row =
    [ "cc"; "32"; "3"; fmt cc_heuristic; fmt cc_lb;
      fmt ((cc_heuristic -. cc_lb) /. cc_lb); "preflight-lb" ]
  in
  let synthetic seed =
    let problem =
      Helpers.small_problem ~n:6 ~lib:3 ~levels:3 ~ser:1e-11 ~hpd:0.25 seed
    in
    let outcome = Bnb.solve ~config problem in
    let cert = outcome.Bnb.certificate in
    [ Printf.sprintf "synthetic-%d" seed; "6"; "3";
      fmt cert.Cert.heuristic_cost; fmt cert.Cert.optimal_cost;
      (match Cert.gap cert with Some g -> fmt g | None -> "");
      "bnb-exact" ]
  in
  [ "instance"; "n"; "m"; "heuristic_cost"; "certified_lb"; "gap"; "method" ]
  :: cc_row
  :: List.map synthetic [ 1; 2; 3 ]

let () =
  match Sys.getenv_opt "FTES_REGEN_GOLDEN" with
  | Some dir ->
      let path = Filename.concat dir golden_name in
      Csv.write_file path (gap_rows ());
      Printf.printf "regenerated %s\n%!" path;
      exit 0
  | None -> ()

let golden_path name =
  let local = Filename.concat "golden" name in
  if Sys.file_exists local then local
  else Filename.concat (Filename.concat "test" "golden") name

let test_golden_gap () =
  let golden = Csv.read_file (golden_path golden_name) in
  Alcotest.(check (list (list string))) "optimality-gap table" golden
    (gap_rows ())

(* --- differential optimality (qcheck) --- *)

(* Instance shapes small enough that the reference enumeration closes
   every cell: the property then demands bit-identical optima (cost
   and tie-breaking schedule length), agreement on infeasibility, a
   clean in-process audit, a seed heuristic never below the optimum
   and a pre-flight cost bound never above it — across every slack and
   bus policy. *)
let instance_gen =
  QCheck.Gen.(
    map
      (fun (seed, n, lib, levels, paper_cell) ->
        (seed, 3 + n, 2 + lib, 1 + levels, paper_cell))
      (tup5 (0 -- 10_000) (int_bound 2) (int_bound 1) (int_bound 2) bool))

let instance =
  QCheck.make
    ~print:(fun (seed, n, lib, levels, paper_cell) ->
      Printf.sprintf "seed %d, n %d, lib %d, levels %d, %s cell" seed n lib
        levels
        (if paper_cell then "paper" else "high-ser"))
    instance_gen

let prop_differential =
  QCheck.Test.make ~count:12
    ~name:"bnb optimum = exhaustive optimum (all slack x bus policies)"
    instance
    (fun (seed, n, lib, levels, paper_cell) ->
      let ser, hpd = if paper_cell then (1e-11, 0.25) else (1e-10, 0.5) in
      let problem = Helpers.small_problem ~n ~lib ~levels ~ser ~hpd seed in
      let prng = Ftes_util.Prng.create (seed + 7) in
      List.for_all
        (fun slack ->
          List.for_all
            (fun bus ->
              let config = Config.make ~slack ~bus () in
              let ex = Exhaustive.run ~config problem in
              let outcome = Bnb.solve ~config problem in
              let cert = outcome.Bnb.certificate in
              let lb =
                (Preflight.run ~kmax:config.Config.kmax
                   ~reexec:(Preflight.reexec_of_slack slack)
                   problem)
                  .Preflight.cost_lower_bound
              in
              if cost_of ex <> cost_of outcome.Bnb.best then
                QCheck.Test.fail_reportf "cost %g <> exhaustive %g"
                  (cost_of outcome.Bnb.best) (cost_of ex)
              else if sl_of ex <> sl_of outcome.Bnb.best then
                QCheck.Test.fail_reportf
                  "schedule length %g <> exhaustive %g"
                  (sl_of outcome.Bnb.best) (sl_of ex)
              else if not (audit_ok config problem outcome) then
                QCheck.Test.fail_reportf "audit failed: %s"
                  (audit_errors config problem outcome)
              else if
                cert.Cert.heuristic_cost < cert.Cert.optimal_cost -. 1e-9
              then
                QCheck.Test.fail_reportf
                  "greedy heuristic %g beat the proven optimum %g"
                  cert.Cert.heuristic_cost cert.Cert.optimal_cost
              else if
                Float.is_finite cert.Cert.optimal_cost
                && lb > cert.Cert.optimal_cost +. 1e-9
              then
                QCheck.Test.fail_reportf
                  "pre-flight cost bound %g above the optimum %g" lb
                  cert.Cert.optimal_cost
              else true)
            Helpers.bus_policies)
        (Helpers.slack_policies prng n))

(* --- the solved-size ladder ---

   Synthetic instances of growing task count x library size (seed 42,
   the paper's nominal corner).  Every rung whose candidate space fits
   the reference enumeration's budget must agree with [Exhaustive]; the
   largest rung, about four orders of magnitude past that budget, must
   be certified optimal by pruning alone. *)

let ladder_problem ~n ~lib =
  let params =
    { Workload.default_params with Workload.n_library = lib; levels = 3 }
  in
  let spec = Workload.generate_spec ~params ~seed:42 ~index:0 ~n_processes:n () in
  Workload.problem_of_spec ~params { Workload.ser = 1e-11; hpd = 0.25 } spec

let exhaustive_budget = 250_000.0

(* A tripwire, not a weaker claim: a certified run near it would mean
   the pruning regressed. *)
let ladder_limit = 100_000

let prunes (c : Cert.counters) =
  c.Cert.pruned_cost + c.Cert.pruned_arch + c.Cert.pruned_symmetry
  + c.Cert.pruned_levels + c.Cert.pruned_mappings

let solve_rung label problem =
  let config = Config.default in
  match Bnb.solve ~limit:ladder_limit ~config problem with
  | exception Bnb.Budget_exhausted n ->
      Alcotest.failf "%s: exhausted the %d-candidate budget at %d" label
        ladder_limit n
  | outcome ->
      Alcotest.(check string) (label ^ ": audit errors") ""
        (audit_errors config problem outcome);
      outcome

(* The rungs small enough for the reference enumeration. *)
let exhaustive_rungs =
  lazy
    (List.filter_map
       (fun (n, lib) ->
         let problem = ladder_problem ~n ~lib in
         if Bnb.search_space problem <= exhaustive_budget then
           Some (Printf.sprintf "n%d-lib%d" n lib, problem)
         else None)
       [ (4, 2); (6, 2); (6, 3); (8, 3) ])

let test_ladder_matches_exhaustive () =
  let config = Config.default in
  let rungs = Lazy.force exhaustive_rungs in
  Alcotest.(check bool) "some rung fits the exhaustive budget" true
    (rungs <> []);
  List.iter
    (fun (label, problem) ->
      let ex = Exhaustive.run ~config problem in
      let outcome = solve_rung label problem in
      Alcotest.(check (float 0.0))
        (label ^ ": cost") (cost_of ex)
        (cost_of outcome.Bnb.best);
      Alcotest.(check (float 0.0))
        (label ^ ": schedule length") (sl_of ex)
        (sl_of outcome.Bnb.best))
    rungs

let test_ladder_top_certified () =
  let problem = ladder_problem ~n:12 ~lib:4 in
  let size p =
    Ftes_model.Problem.n_processes p * Ftes_model.Problem.n_library p
  in
  Alcotest.(check bool) "n12-lib4 is beyond the exhaustive budget" true
    (Bnb.search_space problem > exhaustive_budget);
  Alcotest.(check bool) "and at least twice (n x m) every exhaustive rung"
    true
    (List.for_all
       (fun (_, p) -> size problem >= 2 * size p)
       (Lazy.force exhaustive_rungs));
  let outcome = solve_rung "n12-lib4" problem in
  Alcotest.(check bool) "certified optimum found" true
    (outcome.Bnb.best <> None);
  Alcotest.(check bool) "pruning fired" true
    (prunes outcome.Bnb.certificate.Cert.counters > 0)

(* --- symmetry, budget, gaps --- *)

let test_symmetry_differential () =
  List.iter
    (fun seed ->
      let problem = duplicated_library seed in
      let config = Config.default in
      let ex = Exhaustive.run ~config problem in
      let outcome = Bnb.solve ~config problem in
      let c = outcome.Bnb.certificate in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: symmetry pruning fired" seed)
        true
        (c.Cert.counters.Cert.pruned_symmetry > 0);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "seed %d: cost" seed)
        (cost_of ex)
        (cost_of outcome.Bnb.best);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: audit ok" seed)
        true (audit_ok config problem outcome))
    [ 42; 7 ]

let test_budget_exhausted () =
  let problem, config, _ = Lazy.force fixture in
  Alcotest.check_raises "limit 0 blows the budget" (Bnb.Budget_exhausted 1)
    (fun () -> ignore (Bnb.solve ~limit:0 ~config problem))

(* The exact search may strictly beat the greedy walk: on this
   instance the heuristic proves nothing (infinite seed cost) while
   the branch-and-bound still finds — and certifies — a cost-8
   design. *)
let test_bnb_beats_greedy () =
  let problem = Helpers.small_problem ~n:4 ~lib:3 ~levels:2 3 in
  let config = Config.default in
  let outcome = Bnb.solve ~config problem in
  let cert = outcome.Bnb.certificate in
  Alcotest.(check bool) "greedy found nothing" false
    (Float.is_finite cert.Cert.heuristic_cost);
  Alcotest.(check bool) "bnb proved an optimum" true
    (Float.is_finite cert.Cert.optimal_cost);
  Alcotest.(check (option (float 0.0))) "gap undefined" None (Cert.gap cert);
  Alcotest.(check bool) "audit ok" true (audit_ok config problem outcome)

let test_gap_zero_when_heuristic_optimal () =
  let _, _, outcome = Lazy.force fixture in
  Alcotest.(check (option (float 0.0)))
    "gap 0" (Some 0.0)
    (Cert.gap outcome.Bnb.certificate)

let test_infeasible_proof () =
  let problem = Helpers.small_problem ~n:4 ~lib:3 ~levels:2 1 in
  let config = Config.default in
  let ex = Exhaustive.run ~config problem in
  let outcome = Bnb.solve ~config problem in
  Alcotest.(check bool) "exhaustive agrees" true (ex = None);
  Alcotest.(check bool) "no incumbent" true (outcome.Bnb.best = None);
  Alcotest.(check bool) "optimal cost unbounded" false
    (Float.is_finite outcome.Bnb.certificate.Cert.optimal_cost);
  Alcotest.(check bool) "audit ok" true (audit_ok config problem outcome)

(* --- certificate JSON io --- *)

let test_certificate_roundtrip () =
  let _, _, outcome = Lazy.force fixture in
  let cert = outcome.Bnb.certificate in
  (match Cert_io.of_string (Cert_io.to_string cert) with
  | Ok back ->
      Alcotest.(check bool) "feasible certificate round-trips" true
        (back = cert)
  | Error e -> Alcotest.fail e);
  let infeasible =
    (Bnb.solve
       ~config:(Config.make ())
       (Helpers.small_problem ~n:4 ~lib:3 ~levels:2 1))
      .Bnb.certificate
  in
  match Cert_io.of_string (Cert_io.to_string infeasible) with
  | Ok back ->
      Alcotest.(check bool)
        "infeasible certificate round-trips (unbounded costs)" true
        (back = infeasible)
  | Error e -> Alcotest.fail e

let with_top_field json name value =
  match json with
  | Json.Object fields ->
      Json.Object
        (List.map (fun (k, v) -> if k = name then (k, value) else (k, v))
           fields)
  | other -> other

let without_top_field json name =
  match json with
  | Json.Object fields ->
      Json.Object (List.filter (fun (k, _) -> k <> name) fields)
  | other -> other

let test_certificate_versioning () =
  let _, _, outcome = Lazy.force fixture in
  let json = Cert_io.to_json outcome.Bnb.certificate in
  (match
     Cert_io.of_string
       (Json.to_string
          (with_top_field json "schema_version" (Json.Number 99.0)))
   with
  | Ok _ -> Alcotest.fail "future schema version must be rejected"
  | Error e -> Helpers.check_contains "version error" e "schema_version");
  let warnings = ref [] in
  match
    Cert_io.of_json
      ~on_warning:(fun w -> warnings := w :: !warnings)
      (without_top_field json "schema_version")
  with
  | Ok _ ->
      Alcotest.(check bool) "missing version warns" true (!warnings <> [])
  | Error e -> Alcotest.fail e

(* --- mutation tests: every bnb/* rule catches its own corruption --- *)

let bnb_subject problem config cert =
  Subject.with_bnb_certificate
    { (Subject.of_problem problem) with
      Subject.slack = config.Config.slack;
      bus = config.Config.bus }
    cert

let fired_bnb_rules problem config cert =
  let report = Verify.run (bnb_subject problem config cert) in
  List.filter
    (fun id -> String.length id >= 4 && String.sub id 0 4 = "bnb/")
    (Report.fired_rules report)

let check_mutation name expected mutate =
  let problem, config, outcome = Lazy.force fixture in
  let cert = outcome.Bnb.certificate in
  Alcotest.(check (list string))
    (name ^ ": pristine certificate passes")
    []
    (fired_bnb_rules problem config cert);
  Alcotest.(check (list string))
    (name ^ ": exactly " ^ expected ^ " fires")
    [ expected ]
    (fired_bnb_rules problem config (mutate cert))

let test_mutation_schema () =
  check_mutation "negative counter" "bnb/schema" (fun cert ->
      { cert with
        Cert.counters = { cert.Cert.counters with Cert.evaluated = -1 } })

(* The summary premises analyze/schema checks, bnb/schema checks too. *)
let test_mutation_summary_period () =
  check_mutation "summary period" "bnb/schema" (fun cert ->
      { cert with
        Cert.summary = { cert.Cert.summary with Preflight.period_ms = 1.0 } })

let test_mutation_summary_mu () =
  check_mutation "summary recovery overhead" "bnb/schema" (fun cert ->
      { cert with
        Cert.summary = { cert.Cert.summary with Preflight.mu_ms = 999.0 } })

let test_mutation_incumbent_cost () =
  check_mutation "corrupted incumbent cost" "bnb/incumbent" (fun cert ->
      match cert.Cert.incumbent with
      | Some i ->
          { cert with
            Cert.incumbent = Some { i with Cert.cost = i.Cert.cost +. 1.0 } }
      | None -> Alcotest.fail "fixture lost its incumbent")

let test_mutation_incumbent_infeasible () =
  check_mutation "reliability-violating incumbent" "bnb/incumbent"
    (fun cert ->
      match cert.Cert.incumbent with
      | Some i ->
          (* Zeroed re-executions keep the schedule valid but break the
             reliability goal, so only the feasibility re-check can
             object. *)
          { cert with
            Cert.incumbent =
              Some
                { i with
                  Cert.reexecs = Array.map (fun _ -> 0) i.Cert.reexecs } }
      | None -> Alcotest.fail "fixture lost its incumbent")

let first_cost_bound cert =
  match
    List.find_opt
      (function Cert.Cost_bound _ -> true | _ -> false)
      cert.Cert.prunes
  with
  | Some premise -> premise
  | None -> Alcotest.fail "fixture certificate carries no cost-bound premise"

let test_mutation_unsound_premise () =
  check_mutation "unsound prune premise" "bnb/prune-premise" (fun cert ->
      let target = first_cost_bound cert in
      { cert with
        Cert.prunes =
          List.map
            (fun premise ->
              if premise == target then
                match premise with
                | Cert.Cost_bound { prefix; lower_bound = _; incumbent_cost }
                  ->
                    Cert.Cost_bound
                      { prefix; lower_bound = incumbent_cost; incumbent_cost }
                | other -> other
              else premise)
            cert.Cert.prunes })

let test_mutation_dropped_premise () =
  check_mutation "silently dropped subtree" "bnb/coverage" (fun cert ->
      let target = first_cost_bound cert in
      { cert with
        Cert.prunes =
          List.filter (fun premise -> premise != target) cert.Cert.prunes;
        Cert.counters =
          { cert.Cert.counters with
            Cert.pruned_cost = cert.Cert.counters.Cert.pruned_cost - 1 } })

let test_mutation_optimal_above_heuristic () =
  check_mutation "optimum above the heuristic" "bnb/optimal" (fun cert ->
      { cert with Cert.heuristic_cost = cert.Cert.optimal_cost -. 1.0 })

let () =
  Alcotest.run "ftes_bnb"
    [ ( "differential",
        [ QCheck_alcotest.to_alcotest prop_differential;
          Alcotest.test_case "symmetry twins" `Quick
            test_symmetry_differential;
          Alcotest.test_case "infeasibility proof" `Quick
            test_infeasible_proof;
          Alcotest.test_case "ladder = exhaustive" `Slow
            test_ladder_matches_exhaustive;
          Alcotest.test_case "ladder top certified" `Slow
            test_ladder_top_certified ] );
      ( "gap",
        [ Alcotest.test_case "golden table" `Quick test_golden_gap;
          Alcotest.test_case "bnb beats greedy" `Quick test_bnb_beats_greedy;
          Alcotest.test_case "gap zero" `Quick
            test_gap_zero_when_heuristic_optimal ] );
      ( "engine",
        [ Alcotest.test_case "budget exhausted" `Quick test_budget_exhausted ]
      );
      ( "certificate-io",
        [ Alcotest.test_case "round-trip" `Quick test_certificate_roundtrip;
          Alcotest.test_case "versioning" `Quick test_certificate_versioning
        ] );
      ( "mutations",
        [ Alcotest.test_case "schema" `Quick test_mutation_schema;
          Alcotest.test_case "summary period" `Quick
            test_mutation_summary_period;
          Alcotest.test_case "summary mu" `Quick test_mutation_summary_mu;
          Alcotest.test_case "incumbent cost" `Quick
            test_mutation_incumbent_cost;
          Alcotest.test_case "incumbent feasibility" `Quick
            test_mutation_incumbent_infeasible;
          Alcotest.test_case "unsound premise" `Quick
            test_mutation_unsound_premise;
          Alcotest.test_case "dropped premise" `Quick
            test_mutation_dropped_premise;
          Alcotest.test_case "optimal bound" `Quick
            test_mutation_optimal_above_heuristic ] ) ]
