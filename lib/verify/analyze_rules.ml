(* Offline audit of a pre-flight analysis certificate.  Every claim is
   re-derived from the subject's problem alone — the certificate is
   never trusted as input to its own check — and compared field by
   field: integer tables exactly, derived lengths and costs up to a
   small absolute slop (the producer and the auditor accumulate the
   same WCETs in different orders). *)

module Problem = Ftes_model.Problem
module Application = Ftes_model.Application
module Design = Ftes_model.Design
module Sfp = Ftes_sfp.Sfp
module Bound = Ftes_sfp.Bound
module Archive = Ftes_pareto.Archive
module Tolerance = Ftes_util.Tolerance
module Preflight = Ftes_analyze.Preflight
module D = Diagnostic

let audit_eps = 1e-6

(* [infinity] means "no admissible assignment" on both sides; plain
   [approx] is NaN-false on two infinities, so compare for physical
   equality first. *)
let feq a b = a = b || Tolerance.approx ~eps:audit_eps a b

(* Probability-scale premises (threshold, budget) live around 1e-9: an
   absolute epsilon would wave through any corruption, so they get a
   relative one. *)
let feq_rel a b =
  a = b
  || Float.abs (a -. b) <= audit_eps *. Float.max (Float.abs a) (Float.abs b)

let certificate_exn subject =
  match subject.Subject.certificate with
  | Some c -> c
  | None -> invalid_arg "verifier: analyze rule run without a certificate"

(* analyze/schema: the certificate's problem summary and premises
   describe the subject's problem — same application constants, a
   threshold equal to the re-derived admissible failure probability and
   a budget equal to the re-derived one-sided slop at the recorded
   kmax, and tables shaped like the library. *)
let check_schema subject =
  let rule = "analyze/schema" in
  let cert = certificate_exn subject in
  let problem = subject.Subject.problem in
  let s = cert.Preflight.summary in
  let expect = Preflight.summary_of_problem problem in
  let acc = ref [] in
  let fail fmt = Printf.ksprintf (fun d -> acc := D.error ~rule "%s" d :: !acc) fmt in
  if s.Preflight.n_processes <> expect.Preflight.n_processes then
    fail "summary claims %d processes; the problem has %d"
      s.Preflight.n_processes expect.Preflight.n_processes;
  if s.Preflight.n_library <> expect.Preflight.n_library then
    fail "summary claims a library of %d nodes; the problem has %d"
      s.Preflight.n_library expect.Preflight.n_library;
  if not (feq s.Preflight.deadline_ms expect.Preflight.deadline_ms) then
    fail "summary deadline %g ms; the problem's is %g ms"
      s.Preflight.deadline_ms expect.Preflight.deadline_ms;
  if not (feq s.Preflight.period_ms expect.Preflight.period_ms) then
    fail "summary period %g ms; the problem's is %g ms"
      s.Preflight.period_ms expect.Preflight.period_ms;
  if not (feq s.Preflight.gamma expect.Preflight.gamma) then
    fail "summary gamma %g; the problem's is %g" s.Preflight.gamma
      expect.Preflight.gamma;
  if not (feq s.Preflight.mu_ms expect.Preflight.mu_ms) then
    fail "summary recovery overhead %g ms; the problem's is %g ms"
      s.Preflight.mu_ms expect.Preflight.mu_ms;
  if cert.Preflight.kmax < 0 then
    fail "premise kmax = %d is negative" cert.Preflight.kmax
  else begin
    let app = problem.Problem.app in
    let threshold = Sfp.max_admissible_failure app in
    let budget = Bound.admissible_budget ~kmax:cert.Preflight.kmax app in
    if not (feq_rel cert.Preflight.threshold threshold) then
      fail "premise threshold %.17g differs from the re-derived %.17g"
        cert.Preflight.threshold threshold;
    if not (feq_rel cert.Preflight.budget budget) then
      fail "premise budget %.17g differs from the re-derived %.17g"
        cert.Preflight.budget budget
  end;
  let n = Problem.n_processes problem and m = Problem.n_library problem in
  let shaped name len = function
    | arr when Array.length arr = len -> ()
    | arr -> fail "%s has %d entries for %d processes" name (Array.length arr) len
  in
  shaped "min_wcets" n cert.Preflight.min_wcets;
  shaped "task_min_length" n cert.Preflight.task_min_length;
  shaped "task_cheapest" n cert.Preflight.task_cheapest;
  if Array.length cert.Preflight.kneed <> n then
    fail "kneed has %d entries for %d processes"
      (Array.length cert.Preflight.kneed) n
  else
    Array.iteri
      (fun proc rows ->
        if Array.length rows <> m then
          fail "kneed.(%d) has %d rows for a library of %d" proc
            (Array.length rows) m
        else
          Array.iteri
            (fun node levels ->
              if Array.length levels <> Problem.levels problem node then
                fail "kneed.(%d).(%d) has %d levels; the node offers %d" proc
                  node (Array.length levels) (Problem.levels problem node))
            rows)
      cert.Preflight.kneed;
  List.rev !acc

(* Re-derive the whole analysis under the certificate's premises.  The
   bounds and verdict rules both compare against this. *)
let rederive subject =
  let cert = certificate_exn subject in
  Preflight.run ~kmax:(max 0 cert.Preflight.kmax)
    ~reexec:cert.Preflight.reexec subject.Subject.problem

(* analyze/bounds: every recorded table and aggregate bound equals the
   re-derived one — kneed exactly, floats up to the audit slop. *)
let check_bounds subject =
  let rule = "analyze/bounds" in
  let cert = certificate_exn subject in
  let fresh = rederive subject in
  let acc = ref [] in
  let fail ?loc fmt =
    Printf.ksprintf (fun d -> acc := D.error ?loc ~rule "%s" d :: !acc) fmt
  in
  let per_task name claimed derived =
    if Array.length claimed = Array.length derived then
      Array.iteri
        (fun proc v ->
          if not (feq v derived.(proc)) then
            fail ~loc:(D.Process proc) "%s %g differs from the re-derived %g"
              name v derived.(proc))
        claimed
  in
  per_task "min_wcet_ms" cert.Preflight.min_wcets fresh.Preflight.min_wcets;
  per_task "min_length_ms" cert.Preflight.task_min_length
    fresh.Preflight.task_min_length;
  per_task "cheapest_cost" cert.Preflight.task_cheapest
    fresh.Preflight.task_cheapest;
  if
    Array.length cert.Preflight.kneed
    = Array.length fresh.Preflight.kneed
    && Array.for_all2
         (fun a b -> Array.length a = Array.length b)
         cert.Preflight.kneed fresh.Preflight.kneed
  then
    Array.iteri
      (fun proc rows ->
        Array.iteri
          (fun node levels ->
            let derived = fresh.Preflight.kneed.(proc).(node) in
            if Array.length levels = Array.length derived then
              Array.iteri
                (fun l k ->
                  if k <> derived.(l) then
                    fail ~loc:(D.Process proc)
                      "kneed.(%d).(%d).(%d) = %d differs from the re-derived \
                       %d"
                      proc node l k derived.(l))
                levels)
          rows)
      cert.Preflight.kneed;
  if not (feq cert.Preflight.critical_path_ms fresh.Preflight.critical_path_ms)
  then
    fail "critical path %g ms differs from the re-derived %g ms"
      cert.Preflight.critical_path_ms fresh.Preflight.critical_path_ms;
  if cert.Preflight.critical_path <> fresh.Preflight.critical_path then
    fail "critical path [%s] differs from the re-derived [%s]"
      (String.concat ";"
         (List.map string_of_int cert.Preflight.critical_path))
      (String.concat ";"
         (List.map string_of_int fresh.Preflight.critical_path));
  if not (feq cert.Preflight.total_work_ms fresh.Preflight.total_work_ms)
  then
    fail "total work %g ms differs from the re-derived %g ms"
      cert.Preflight.total_work_ms fresh.Preflight.total_work_ms;
  if not (feq cert.Preflight.capacity_ms fresh.Preflight.capacity_ms) then
    fail "capacity %g ms differs from the re-derived %g ms"
      cert.Preflight.capacity_ms fresh.Preflight.capacity_ms;
  if
    not
      (feq cert.Preflight.cost_lower_bound fresh.Preflight.cost_lower_bound)
  then
    fail "cost lower bound %g differs from the re-derived %g"
      cert.Preflight.cost_lower_bound fresh.Preflight.cost_lower_bound;
  if
    not
      (feq cert.Preflight.sfp_cost_lower_bound
         fresh.Preflight.sfp_cost_lower_bound)
  then
    fail "SFP cost lower bound %g differs from the re-derived %g"
      cert.Preflight.sfp_cost_lower_bound
      fresh.Preflight.sfp_cost_lower_bound;
  List.rev !acc

let witness_key (w : Preflight.witness) =
  match w with
  | Preflight.Task_wcet { proc; _ } -> ("task-wcet", Some proc)
  | Preflight.Task_slack { proc; _ } -> ("task-slack", Some proc)
  | Preflight.Task_unreliable { proc } -> ("task-unreliable", Some proc)
  | Preflight.Critical_path _ -> ("critical-path", None)
  | Preflight.Total_work _ -> ("total-work", None)

let key_to_string = function
  | kind, Some proc -> Printf.sprintf "%s(process %d)" kind proc
  | kind, None -> kind

(* Rendering names processes, so a decoded witness is rendered only
   once every process index it carries is known to lie within the
   problem. *)
let processes_in_range n (w : Preflight.witness) =
  let ok p = p >= 0 && p < n in
  match w with
  | Preflight.Task_wcet { proc; _ }
  | Preflight.Task_slack { proc; _ }
  | Preflight.Task_unreliable { proc } ->
      ok proc
  | Preflight.Critical_path { path; _ } -> List.for_all ok path
  | Preflight.Total_work _ -> true

let witness_agrees (a : Preflight.witness) (b : Preflight.witness) =
  match (a, b) with
  | ( Preflight.Task_wcet { min_wcet_ms = x; _ },
      Preflight.Task_wcet { min_wcet_ms = y; _ } ) ->
      feq x y
  | ( Preflight.Task_slack { min_length_ms = x; _ },
      Preflight.Task_slack { min_length_ms = y; _ } ) ->
      feq x y
  | Preflight.Task_unreliable _, Preflight.Task_unreliable _ -> true
  | ( Preflight.Critical_path { length_ms = x; path = p },
      Preflight.Critical_path { length_ms = y; path = q } ) ->
      feq x y && p = q
  | ( Preflight.Total_work { work_ms = x; capacity_ms = cx },
      Preflight.Total_work { work_ms = y; capacity_ms = cy } ) ->
      feq x y && feq cx cy
  | _ -> false

(* analyze/verdict: the feasible flag is exactly "no witnesses", and
   the witness list matches the re-derived one — same conditions
   violated, same recorded evidence. *)
let check_verdict subject =
  let rule = "analyze/verdict" in
  let cert = certificate_exn subject in
  let problem = subject.Subject.problem in
  let fresh = rederive subject in
  let acc = ref [] in
  let fail fmt =
    Printf.ksprintf (fun d -> acc := D.error ~rule "%s" d :: !acc) fmt
  in
  if cert.Preflight.feasible <> (cert.Preflight.witnesses = []) then
    fail "feasible = %b but the certificate carries %d witnesses"
      cert.Preflight.feasible
      (List.length cert.Preflight.witnesses);
  if cert.Preflight.feasible <> fresh.Preflight.feasible then
    fail "verdict feasible = %b; the re-derived analysis says %b"
      cert.Preflight.feasible fresh.Preflight.feasible;
  let claimed = List.map witness_key cert.Preflight.witnesses in
  let derived = List.map witness_key fresh.Preflight.witnesses in
  if List.sort compare claimed <> List.sort compare derived then
    fail "witness set {%s} differs from the re-derived {%s}"
      (String.concat ", " (List.map key_to_string claimed))
      (String.concat ", " (List.map key_to_string derived))
  else
    List.iter
      (fun w ->
        let key = witness_key w in
        match
          List.find_opt
            (fun w' -> witness_key w' = key)
            fresh.Preflight.witnesses
        with
        | Some w' when witness_agrees w w' -> ()
        | Some _ when not (processes_in_range (Problem.n_processes problem) w)
          ->
            fail
              "witness %s: recorded evidence names a process index outside \
               the problem's %d processes"
              (key_to_string key) (Problem.n_processes problem)
        | Some w' ->
            fail "witness %s: recorded %s; re-derived %s" (key_to_string key)
              (Preflight.witness_to_string problem w)
              (Preflight.witness_to_string problem w')
        | None -> ())
      cert.Preflight.witnesses;
  List.rev !acc

(* analyze/lower-bound: the certified cost lower bound is consistent
   internally (deadline-aware >= reliability-only) and never exceeds
   any cost the subject actually achieved — an attached design, the
   recorded single-objective OPT, or any frontier point. *)
let check_lower_bound subject =
  let rule = "analyze/lower-bound" in
  let cert = certificate_exn subject in
  let problem = subject.Subject.problem in
  let lb = cert.Preflight.cost_lower_bound in
  let acc = ref [] in
  let fail fmt =
    Printf.ksprintf (fun d -> acc := D.error ~rule "%s" d :: !acc) fmt
  in
  if
    Float.is_finite lb
    && lb +. Tolerance.cost_eps < cert.Preflight.sfp_cost_lower_bound
  then
    fail
      "deadline-aware lower bound %g is below the reliability-only bound %g"
      lb cert.Preflight.sfp_cost_lower_bound;
  let check_cost what cost =
    if lb -. Tolerance.cost_eps > cost then
      fail "lower bound %g exceeds the %s cost %g" lb what cost
  in
  (match subject.Subject.design with
  | Some design -> check_cost "attached design's" (Design.cost problem design)
  | None -> ());
  (match subject.Subject.opt_cost with
  | Some cost -> check_cost "recorded OPT" cost
  | None -> ());
  (match subject.Subject.archive with
  | Some archive ->
      List.iteri
        (fun index (p : Archive.point) ->
          check_cost (Printf.sprintf "frontier point %d's" index)
            p.Archive.cost)
        (Archive.points archive)
  | None -> ());
  List.rev !acc

let all =
  [ Rule.make ~id:"analyze/schema"
      ~synopsis:"certificate premises and summary describe the subject's \
                 problem"
      ~requires:Rule.Needs_certificate check_schema;
    Rule.make ~id:"analyze/bounds"
      ~synopsis:"every certified table and bound matches a from-scratch \
                 re-derivation"
      ~requires:Rule.Needs_certificate check_bounds;
    Rule.make ~id:"analyze/verdict"
      ~synopsis:"the feasibility verdict and its witnesses are re-derivable"
      ~requires:Rule.Needs_certificate check_verdict;
    Rule.make ~id:"analyze/lower-bound"
      ~synopsis:"the certified cost lower bound never exceeds an achieved \
                 cost"
      ~requires:Rule.Needs_certificate check_lower_bound ]
