(* Offline audit of a branch-and-bound optimality certificate.  Every
   premise is re-derived from the subject's problem under the
   certificate's recorded kmax and the subject's slack / bus policies —
   the certificate is never trusted as input to its own check — and the
   premises plus the closed architectures must tile the architecture
   lattice exactly once. *)

module Problem = Ftes_model.Problem
module Design = Ftes_model.Design
module Scheduler = Ftes_sched.Scheduler
module Sfp = Ftes_sfp.Sfp
module Tolerance = Ftes_util.Tolerance
module Preflight = Ftes_analyze.Preflight
module Cert = Ftes_analyze.Bnb_certificate
module D = Diagnostic

let audit_eps = 1e-6

let feq a b = a = b || Tolerance.approx ~eps:audit_eps a b

(* Search spaces reach 1e9 and beyond, so the re-derivation is compared
   relatively. *)
let feq_rel a b =
  a = b
  || Float.abs (a -. b) <= audit_eps *. Float.max (Float.abs a) (Float.abs b)

let certificate_exn subject =
  match subject.Subject.bnb_certificate with
  | Some c -> c
  | None -> invalid_arg "verifier: bnb rule run without a certificate"

let rederive subject =
  let cert = certificate_exn subject in
  Preflight.run
    ~kmax:(max 0 cert.Cert.kmax)
    ~reexec:(Preflight.reexec_of_slack subject.Subject.slack)
    subject.Subject.problem

(* A premise's prefix must be a strictly increasing member list; its
   open suffix starts right after the last member. *)
let prefix_shape problem prefix =
  let lib = Problem.n_library problem in
  let ok = ref true in
  Array.iteri
    (fun i j ->
      if j < 0 || j >= lib || (i > 0 && j <= prefix.(i - 1)) then ok := false)
    prefix;
  if not !ok then None
  else
    Some (if Array.length prefix = 0 then 0 else prefix.(Array.length prefix - 1) + 1)

let prefix_str prefix =
  "{" ^ String.concat "," (List.map string_of_int (Array.to_list prefix)) ^ "}"

(* Σ over non-empty subsets of the library of (levels product) * m^n —
   [Ftes_core.Exhaustive.search_space], re-derived here because the
   verifier sits below the search engines. *)
let rederive_search_space problem =
  let lib = Problem.n_library problem in
  let n = float_of_int (Problem.n_processes problem) in
  let total = ref 0.0 in
  for mask = 1 to (1 lsl lib) - 1 do
    let levels = ref 1.0 and m = ref 0 in
    for j = 0 to lib - 1 do
      if mask land (1 lsl j) <> 0 then begin
        incr m;
        levels := !levels *. float_of_int (Problem.levels problem j)
      end
    done;
    total := !total +. (!levels *. (float_of_int !m ** n))
  done;
  !total

(* bnb/schema: the summary describes the subject's problem, the
   premises are re-derivable, counters are non-negative and consistent
   with the premise list, and the symmetry-expanded architecture count
   stays within the lattice. *)
let check_schema subject =
  let rule = "bnb/schema" in
  let cert = certificate_exn subject in
  let problem = subject.Subject.problem in
  let lib = Problem.n_library problem in
  let acc = ref [] in
  let fail fmt =
    Printf.ksprintf (fun d -> acc := D.error ~rule "%s" d :: !acc) fmt
  in
  let s = cert.Cert.summary in
  let expect = Preflight.summary_of_problem problem in
  if s.Preflight.n_processes <> expect.Preflight.n_processes then
    fail "summary claims %d processes; the problem has %d"
      s.Preflight.n_processes expect.Preflight.n_processes;
  if s.Preflight.n_library <> expect.Preflight.n_library then
    fail "summary claims a library of %d nodes; the problem has %d"
      s.Preflight.n_library expect.Preflight.n_library;
  if not (feq s.Preflight.deadline_ms expect.Preflight.deadline_ms) then
    fail "summary deadline %g ms; the problem's is %g ms"
      s.Preflight.deadline_ms expect.Preflight.deadline_ms;
  if not (feq s.Preflight.gamma expect.Preflight.gamma) then
    fail "summary gamma %g; the problem's is %g" s.Preflight.gamma
      expect.Preflight.gamma;
  if cert.Cert.kmax < 0 then fail "premise kmax = %d is negative" cert.Cert.kmax;
  if lib <= 30 && not (feq_rel cert.Cert.search_space (rederive_search_space problem))
  then
    fail "search space %.17g differs from the re-derived %.17g"
      cert.Cert.search_space (rederive_search_space problem);
  let k = cert.Cert.counters in
  List.iter
    (fun (name, v) -> if v < 0 then fail "counter %s = %d is negative" name v)
    [ ("expanded", k.Cert.expanded);
      ("closed", k.Cert.closed);
      ("evaluated", k.Cert.evaluated);
      ("pruned_cost", k.Cert.pruned_cost);
      ("pruned_arch", k.Cert.pruned_arch);
      ("pruned_symmetry", k.Cert.pruned_symmetry);
      ("pruned_levels", k.Cert.pruned_levels);
      ("pruned_mappings", k.Cert.pruned_mappings) ];
  let count pred = List.length (List.filter pred cert.Cert.prunes) in
  let n_cost = count (function Cert.Cost_bound _ -> true | _ -> false) in
  let n_arch = count (function Cert.Arch_infeasible _ -> true | _ -> false) in
  let n_sym = count (function Cert.Symmetry _ -> true | _ -> false) in
  if k.Cert.pruned_cost <> n_cost then
    fail "pruned_cost = %d but the certificate carries %d cost-bound premises"
      k.Cert.pruned_cost n_cost;
  if k.Cert.pruned_arch <> n_arch then
    fail
      "pruned_arch = %d but the certificate carries %d infeasibility premises"
      k.Cert.pruned_arch n_arch;
  if k.Cert.pruned_symmetry <> n_sym then
    fail "pruned_symmetry = %d but the certificate carries %d symmetry premises"
      k.Cert.pruned_symmetry n_sym;
  if lib <= 60 then begin
    let subsets = (2.0 ** float_of_int lib) -. 1.0 in
    if
      cert.Cert.represented_subsets +. 0.5 < float_of_int k.Cert.closed
      || cert.Cert.represented_subsets > subsets +. 0.5
    then
      fail
        "represented_subsets = %g is outside [closed = %d, 2^%d - 1 = %g]"
        cert.Cert.represented_subsets k.Cert.closed lib subsets
  end;
  List.rev !acc

(* bnb/incumbent: the claimed optimal design is a valid design of the
   problem, its re-derived cost and schedule length match the claims,
   it meets the deadline and the reliability goal, and the certified
   optimal cost is exactly the incumbent's. *)
let check_incumbent subject =
  let rule = "bnb/incumbent" in
  let cert = certificate_exn subject in
  let problem = subject.Subject.problem in
  let acc = ref [] in
  let fail fmt =
    Printf.ksprintf (fun d -> acc := D.error ~rule "%s" d :: !acc) fmt
  in
  (match cert.Cert.incumbent with
  | None ->
      if Float.is_finite cert.Cert.optimal_cost then
        fail "optimal cost %g is finite but no incumbent is recorded"
          cert.Cert.optimal_cost
  | Some i ->
      if not (Float.is_finite cert.Cert.optimal_cost) then
        fail "an incumbent is recorded but the optimal cost is unbounded";
      if cert.Cert.optimal_cost <> i.Cert.cost then
        fail "optimal cost %g differs from the incumbent's claimed cost %g"
          cert.Cert.optimal_cost i.Cert.cost;
      let candidate =
        { Design.members = i.Cert.members;
          levels = i.Cert.levels;
          reexecs = i.Cert.reexecs;
          mapping = i.Cert.mapping }
      in
      (match Design.validate problem candidate with
      | Error msg -> fail "incumbent is not a valid design: %s" msg
      | Ok () ->
          let cost = Design.cost problem candidate in
          if not (feq cost i.Cert.cost) then
            fail "incumbent cost %g differs from the re-derived %g"
              i.Cert.cost cost;
          let sl =
            Scheduler.schedule_length ~slack:subject.Subject.slack
              ~bus:subject.Subject.bus problem candidate
          in
          if not (feq sl i.Cert.schedule_length_ms) then
            fail "incumbent schedule length %g ms differs from the re-derived \
                  %g ms"
              i.Cert.schedule_length_ms sl;
          let deadline =
            problem.Problem.app.Ftes_model.Application.deadline_ms
          in
          if sl > deadline +. audit_eps then
            fail "incumbent schedule length %g ms misses the deadline %g ms"
              sl deadline;
          if not (Sfp.meets_goal problem candidate) then
            fail "incumbent does not meet the reliability goal"));
  List.rev !acc

(* bnb/prune-premise: every recorded prune is re-derivable — the cost
   bound from [Preflight.completion_cost_lower_bound] with a prune
   reference no better than the proven optimum, the infeasibility
   verdicts from [Preflight.architecture_check], the symmetry skips
   from [Preflight.canonical_nodes]. *)
let check_prune_premises subject =
  let rule = "bnb/prune-premise" in
  let cert = certificate_exn subject in
  let problem = subject.Subject.problem in
  let lib = Problem.n_library problem in
  let fresh = rederive subject in
  let canonical = Preflight.canonical_nodes problem in
  let acc = ref [] in
  let fail fmt =
    Printf.ksprintf (fun d -> acc := D.error ~rule "%s" d :: !acc) fmt
  in
  List.iteri
    (fun index prune ->
      let prefix =
        match prune with
        | Cert.Cost_bound { prefix; _ }
        | Cert.Arch_infeasible { prefix; _ }
        | Cert.Symmetry { prefix; _ } ->
            prefix
      in
      match prefix_shape problem prefix with
      | None ->
          fail "premise %d: prefix %s is not a strictly increasing member \
                list"
            index (prefix_str prefix)
      | Some first_open -> (
          match prune with
          | Cert.Cost_bound { lower_bound; incumbent_cost; _ } ->
              let derived =
                Preflight.completion_cost_lower_bound fresh problem ~prefix
                  ~first_open
              in
              if not (feq lower_bound derived) then
                fail
                  "premise %d: lower bound %g below %s differs from the \
                   re-derived %g"
                  index lower_bound (prefix_str prefix) derived;
              if not (lower_bound > incumbent_cost) then
                fail
                  "premise %d: lower bound %g does not exceed the prune \
                   reference %g"
                  index lower_bound incumbent_cost;
              if incumbent_cost +. audit_eps < cert.Cert.optimal_cost then
                fail
                  "premise %d: prune reference %g is below the proven \
                   optimum %g"
                  index incumbent_cost cert.Cert.optimal_cost
          | Cert.Arch_infeasible { subtree; verdict; _ } -> (
              let members =
                if subtree then
                  Array.append prefix
                    (Array.init (lib - first_open) (fun i -> first_open + i))
                else prefix
              in
              if Array.length members = 0 then
                fail "premise %d: infeasibility claimed for an empty \
                      architecture"
                  index
              else
                match
                  (Preflight.architecture_check fresh problem ~members, verdict)
                with
                | `Unreliable p, Cert.Unreliable q when p = q -> ()
                | `Deadline lb, Cert.Deadline lb' when feq lb lb' -> ()
                | `Feasible, _ ->
                    fail
                      "premise %d: architecture %s re-derives as feasible"
                      index (prefix_str members)
                | `Unreliable p, _ ->
                    fail
                      "premise %d: verdict differs — re-derived: process %d \
                       has no admissible assignment"
                      index p
                | `Deadline lb, _ ->
                    fail
                      "premise %d: verdict differs — re-derived: length \
                       lower bound %g ms"
                      index lb)
          | Cert.Symmetry { skipped; canonical = twin; _ } ->
              if skipped < first_open || skipped >= lib then
                fail "premise %d: skipped node %d is not an extension of %s"
                  index skipped (prefix_str prefix)
              else if twin < 0 || twin >= skipped then
                fail "premise %d: node %d is no smaller twin of %d" index
                  twin skipped
              else begin
                if canonical.(twin) <> canonical.(skipped) then
                  fail
                    "premise %d: nodes %d and %d are not interchangeable"
                    index twin skipped;
                if Array.exists (fun x -> x = twin) prefix then
                  fail
                    "premise %d: twin %d is already a member of %s"
                    index twin (prefix_str prefix)
              end))
    cert.Cert.prunes;
  List.rev !acc

(* bnb/coverage: the closed architectures and the prune premises tile
   the architecture lattice exactly once — subtree prunes stand for
   every extension of their prefix, symmetry skips for the subtree of
   the skipped edge, infeasible leaves for themselves. *)
let check_coverage subject =
  let rule = "bnb/coverage" in
  let cert = certificate_exn subject in
  let problem = subject.Subject.problem in
  let lib = Problem.n_library problem in
  if lib > 60 then []
  else begin
    let pow2 e = 2.0 ** float_of_int e in
    let bad = ref false in
    let covered = ref (float_of_int cert.Cert.counters.Cert.closed) in
    List.iter
      (fun prune ->
        let prefix =
          match prune with
          | Cert.Cost_bound { prefix; _ }
          | Cert.Arch_infeasible { prefix; _ }
          | Cert.Symmetry { prefix; _ } ->
              prefix
        in
        match prefix_shape problem prefix with
        | None -> bad := true
        | Some first_open -> (
            match prune with
            | Cert.Cost_bound _ | Cert.Arch_infeasible { subtree = true; _ }
              ->
                let root = Array.length prefix = 0 in
                covered :=
                  !covered +. pow2 (lib - first_open)
                  -. (if root then 1.0 else 0.0)
            | Cert.Arch_infeasible { subtree = false; _ } ->
                covered := !covered +. 1.0
            | Cert.Symmetry { skipped; _ } ->
                if skipped < 0 || skipped >= lib then bad := true
                else covered := !covered +. pow2 (lib - 1 - skipped)))
      cert.Cert.prunes;
    if !bad then
      [ D.error ~rule
          "a premise prefix is malformed; the lattice coverage cannot be \
           accounted" ]
    else begin
      let lattice = pow2 lib -. 1.0 in
      if Float.abs (!covered -. lattice) > 0.5 then
        [ D.error ~rule
            "closed architectures and premises cover %g architectures; the \
             lattice holds %g"
            !covered lattice ]
      else []
    end
  end

(* bnb/optimal: the cost chain is ordered — the fresh pre-flight lower
   bound never exceeds the proven optimum, which never exceeds the
   heuristic seed. *)
let check_optimal subject =
  let rule = "bnb/optimal" in
  let cert = certificate_exn subject in
  let fresh = rederive subject in
  let acc = ref [] in
  let fail fmt =
    Printf.ksprintf (fun d -> acc := D.error ~rule "%s" d :: !acc) fmt
  in
  if cert.Cert.optimal_cost > cert.Cert.heuristic_cost +. audit_eps then
    fail
      "proven optimum %g exceeds the heuristic seed %g — the search can \
       never end worse than its incumbent seed"
      cert.Cert.optimal_cost cert.Cert.heuristic_cost;
  if
    Float.is_finite cert.Cert.optimal_cost
    && fresh.Preflight.cost_lower_bound > cert.Cert.optimal_cost +. audit_eps
  then
    fail "pre-flight cost lower bound %g exceeds the proven optimum %g"
      fresh.Preflight.cost_lower_bound cert.Cert.optimal_cost;
  List.rev !acc

let all =
  [ Rule.make ~id:"bnb/schema"
      ~synopsis:"certificate summary, counters and premise list are shaped \
                 by the subject's problem"
      ~requires:Rule.Needs_bnb_certificate check_schema;
    Rule.make ~id:"bnb/incumbent"
      ~synopsis:"the claimed optimal design re-derives as feasible at the \
                 claimed cost and length"
      ~requires:Rule.Needs_bnb_certificate check_incumbent;
    Rule.make ~id:"bnb/prune-premise"
      ~synopsis:"every prune premise is re-derivable from the problem"
      ~requires:Rule.Needs_bnb_certificate check_prune_premises;
    Rule.make ~id:"bnb/coverage"
      ~synopsis:"closed architectures and premises tile the architecture \
                 lattice exactly once"
      ~requires:Rule.Needs_bnb_certificate check_coverage;
    Rule.make ~id:"bnb/optimal"
      ~synopsis:"lower bound <= proven optimum <= heuristic seed"
      ~requires:Rule.Needs_bnb_certificate check_optimal ]
