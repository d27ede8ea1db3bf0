module Problem = Ftes_model.Problem
module Application = Ftes_model.Application
module Task_graph = Ftes_model.Task_graph
module Sfp = Ftes_sfp.Sfp
module Bound = Ftes_sfp.Bound
module Scheduler = Ftes_sched.Scheduler
module Tolerance = Ftes_util.Tolerance

type witness =
  | Task_wcet of { proc : int; min_wcet_ms : float }
  | Task_slack of { proc : int; min_length_ms : float }
  | Task_unreliable of { proc : int }
  | Critical_path of { length_ms : float; path : int list }
  | Total_work of { work_ms : float; capacity_ms : float }

type summary = {
  name : string;
  n_processes : int;
  n_library : int;
  deadline_ms : float;
  period_ms : float;
  gamma : float;
  mu_ms : float;
}

let summary_of_problem problem =
  let app = problem.Problem.app in
  { name = app.Application.name;
    n_processes = Problem.n_processes problem;
    n_library = Problem.n_library problem;
    deadline_ms = app.Application.deadline_ms;
    period_ms = app.Application.period_ms;
    gamma = app.Application.gamma;
    mu_ms = app.Application.recovery_overhead_ms }

type t = {
  summary : summary;
  kmax : int;
  reexec : bool;
  threshold : float;
  budget : float;
  min_wcets : float array;
  kneed : int array array array;
  task_min_length : float array;
  task_cheapest : float array;
  critical_path_ms : float;
  critical_path : int list;
  total_work_ms : float;
  capacity_ms : float;
  cost_lower_bound : float;
  sfp_cost_lower_bound : float;
  feasible : bool;
  witnesses : witness list;
}

(* Every length bound below under-approximates a real schedule length
   up to the accumulation order of a handful of float additions; the
   margin keeps a bound that ties with the deadline from ever becoming
   a false infeasibility proof. *)
let prove_eps_ms = 1e-6

let c_runs = Ftes_obs.Metrics.counter "analyze.runs"

let c_bounds = Ftes_obs.Metrics.counter "analyze.bounds_derived"

let c_infeasible = Ftes_obs.Metrics.counter "analyze.infeasible"

(* A derived length lower bound proves infeasibility only when it
   clears both the verdict tolerance and the float-accumulation
   margin. *)
let overruns t ~deadline = t -. prove_eps_ms > deadline +. Tolerance.time_eps_ms

let run ?(kmax = Sfp.default_kmax) ~reexec problem =
  Ftes_obs.Span.with_ ~name:"analyze/preflight" @@ fun () ->
  Ftes_obs.Metrics.incr c_runs;
  let app = problem.Problem.app in
  let deadline = app.Application.deadline_ms in
  let mu = app.Application.recovery_overhead_ms in
  let n = Problem.n_processes problem in
  let lib = Problem.n_library problem in
  let threshold = Sfp.max_admissible_failure app in
  let budget = Bound.admissible_budget ~kmax app in
  let kneed =
    Array.init n (fun proc ->
        Array.init lib (fun node ->
            Array.init (Problem.levels problem node) (fun l ->
                let pf =
                  Problem.pfail problem ~node ~level:(l + 1) ~proc
                in
                match Bound.required_k_exact [| pf |] ~budget ~kmax with
                | Some k -> k
                | None -> -1)))
  in
  let min_wcets = Array.make n infinity in
  let task_min_length = Array.make n infinity in
  let task_cheapest = Array.make n infinity in
  let task_reliable_cheapest = Array.make n infinity in
  for proc = 0 to n - 1 do
    for node = 0 to lib - 1 do
      for level = 1 to Problem.levels problem node do
        let t = Problem.wcet problem ~node ~level ~proc in
        if t < min_wcets.(proc) then min_wcets.(proc) <- t;
        let k = kneed.(proc).(node).(level - 1) in
        if k >= 0 then begin
          let c = Problem.cost problem ~node ~level in
          task_reliable_cheapest.(proc) <-
            Float.min task_reliable_cheapest.(proc) c;
          let len =
            if reexec then t +. (float_of_int k *. (t +. mu)) else t
          in
          if len < task_min_length.(proc) then task_min_length.(proc) <- len;
          (* Deadline-admissible on top of reliability-admissible;
             inclusion is generous (the same slop the witness test
             proves against), so a workable assignment is never
             dropped from the cost bound. *)
          if not (overruns len ~deadline) && c < task_cheapest.(proc) then
            task_cheapest.(proc) <- c
        end
      done
    done
  done;
  let graph = Problem.graph problem in
  let exec p = min_wcets.(p) in
  let comm _ = 0.0 in
  let critical_path_ms = Task_graph.longest_path graph ~exec ~comm in
  let critical_path = Task_graph.critical_path graph ~exec ~comm in
  let total_work_ms = Array.fold_left ( +. ) 0.0 min_wcets in
  let capacity_ms = float_of_int lib *. deadline in
  let task_witness proc =
    if
      Array.for_all
        (fun row -> Array.for_all (fun k -> k < 0) row)
        kneed.(proc)
    then Some (Task_unreliable { proc })
    else if overruns min_wcets.(proc) ~deadline then
      Some (Task_wcet { proc; min_wcet_ms = min_wcets.(proc) })
    else if overruns task_min_length.(proc) ~deadline then
      Some (Task_slack { proc; min_length_ms = task_min_length.(proc) })
    else None
  in
  let witnesses =
    List.filter_map task_witness (List.init n Fun.id)
    @ (if overruns critical_path_ms ~deadline then
         [ Critical_path { length_ms = critical_path_ms; path = critical_path } ]
       else [])
    @
    if overruns (total_work_ms /. float_of_int lib) ~deadline then
      [ Total_work { work_ms = total_work_ms; capacity_ms } ]
    else []
  in
  let cost_lower_bound =
    Array.fold_left Float.max 0.0 task_cheapest
  in
  (* Any feasible design hosts each process on a member whose
     h-version admits the goal within kmax re-executions — its
     singleton exceedance is below the node's (adding processes only
     adds fault scenarios) — so the architecture pays at least the
     cheapest admissible version of the most demanding process. *)
  let sfp_cost_lower_bound =
    Array.fold_left Float.max 0.0 task_reliable_cheapest
  in
  let derived =
    Array.fold_left
      (fun acc rows ->
        Array.fold_left (fun acc row -> acc + Array.length row) acc rows)
      0 kneed
    + (3 * n) + 4
  in
  Ftes_obs.Metrics.add c_bounds derived;
  if witnesses <> [] then Ftes_obs.Metrics.incr c_infeasible;
  { summary = summary_of_problem problem;
    kmax;
    reexec;
    threshold;
    budget;
    min_wcets;
    kneed;
    task_min_length;
    task_cheapest;
    critical_path_ms;
    critical_path;
    total_work_ms;
    capacity_ms;
    cost_lower_bound;
    sfp_cost_lower_bound;
    feasible = witnesses = [];
    witnesses }

let reexec_of_slack = function
  | Scheduler.Shared | Scheduler.Conservative | Scheduler.Dedicated -> true
  | Scheduler.Per_process _ | Scheduler.Checkpointed _ -> false

let witness_to_string problem w =
  let app = problem.Problem.app in
  let name p = Application.process_name app p in
  let deadline = app.Application.deadline_ms in
  match w with
  | Task_wcet { proc; min_wcet_ms } ->
      Printf.sprintf
        "process %s: fastest WCET %.2f ms alone overruns the %.2f ms deadline"
        (name proc) min_wcet_ms deadline
  | Task_slack { proc; min_length_ms } ->
      Printf.sprintf
        "process %s: every reliability-admissible assignment needs >= %.2f \
         ms with its re-execution slack, beyond the %.2f ms deadline"
        (name proc) min_length_ms deadline
  | Task_unreliable { proc } ->
      Printf.sprintf
        "process %s: no (node, level) pair reaches the reliability goal \
         within the re-execution bound"
        (name proc)
  | Critical_path { length_ms; path } ->
      Printf.sprintf
        "critical path %s needs %.2f ms even at per-process minimum WCETs, \
         beyond the %.2f ms deadline"
        (String.concat " -> " (List.map name path))
        length_ms deadline
  | Total_work { work_ms; capacity_ms } ->
      Printf.sprintf
        "total minimum work %.2f ms exceeds the full library's %.2f ms \
         capacity within the deadline"
        work_ms capacity_ms

(* --- pruning oracles --- *)

let architecture_check t problem ~members =
  let n = Problem.n_processes problem in
  let m = Array.length members in
  let min_t = Array.make n infinity in
  let unreliable = ref None in
  let worst_len = ref 0.0 in
  (try
     for p = 0 to n - 1 do
       let best_len = ref infinity in
       Array.iter
         (fun node ->
           for level = 1 to Problem.levels problem node do
             let tq = Problem.wcet problem ~node ~level ~proc:p in
             if tq < min_t.(p) then min_t.(p) <- tq;
             let k = t.kneed.(p).(node).(level - 1) in
             if k >= 0 then begin
               let len =
                 if t.reexec then
                   tq +. (float_of_int k *. (tq +. t.summary.mu_ms))
                 else tq
               in
               if len < !best_len then best_len := len
             end
           done)
         members;
       if !best_len = infinity then begin
         unreliable := Some p;
         raise Exit
       end;
       if !best_len > !worst_len then worst_len := !best_len
     done
   with Exit -> ());
  match !unreliable with
  | Some p -> `Unreliable p
  | None ->
      let cp =
        Task_graph.longest_path (Problem.graph problem)
          ~exec:(fun p -> min_t.(p))
          ~comm:(fun _ -> 0.0)
      in
      let work = Array.fold_left ( +. ) 0.0 min_t in
      let lb = Float.max !worst_len (Float.max cp (work /. float_of_int m)) in
      if overruns lb ~deadline:t.summary.deadline_ms then `Deadline lb
      else `Feasible

(* Two library nodes are interchangeable exactly when every table the
   rest of the stack ever reads agrees: same number of h-versions and,
   per version, the same cost and the same WCET / failure-probability
   column over the processes.  Equality is on the float values (never
   NaN in a validated problem), so interchangeable nodes produce
   bit-identical schedules, SFP verdicts and costs. *)
let node_key problem j =
  let n = Problem.n_processes problem in
  List.init (Problem.levels problem j) (fun l ->
      let level = l + 1 in
      ( Problem.cost problem ~node:j ~level,
        List.init n (fun proc ->
            ( Problem.wcet problem ~node:j ~level ~proc,
              Problem.pfail problem ~node:j ~level ~proc )) ))

let canonical_nodes problem =
  let keys = Array.init (Problem.n_library problem) (node_key problem) in
  Array.init (Array.length keys) (fun j ->
      let rec find j' = if keys.(j') = keys.(j) then j' else find (j' + 1) in
      find 0)

let completion_cost_lower_bound t problem ~prefix ~first_open =
  let lib = Problem.n_library problem in
  if first_open < 0 || first_open > lib then
    invalid_arg "Preflight.completion_cost_lower_bound: first_open out of range";
  Array.iteri
    (fun i j ->
      if j < 0 || j >= first_open || (i > 0 && j <= prefix.(i - 1)) then
        invalid_arg
          "Preflight.completion_cost_lower_bound: prefix must be strictly \
           increasing below first_open")
    prefix;
  let n = Problem.n_processes problem in
  let admissible p j h = t.kneed.(p).(j).(h - 1) >= 0 in
  let node_admits p j =
    let levels = Problem.levels problem j in
    let rec go h = h <= levels && (admissible p j h || go (h + 1)) in
    go 1
  in
  (* Every chosen member contributes at least its cheapest h-version;
     a process no chosen member can host within the reliability budget
     forces at least one more node, admissible for it, from the still
     addable suffix — its cost is bounded by the cheapest admissible
     h-version there, and one node may serve every such process, hence
     the max. *)
  let base =
    Array.fold_left
      (fun acc j -> acc +. Problem.min_cost problem ~node:j)
      0.0 prefix
  in
  let extra = ref 0.0 in
  for p = 0 to n - 1 do
    if not (Array.exists (node_admits p) prefix) then begin
      let cheapest = ref infinity in
      for j = first_open to lib - 1 do
        for h = 1 to Problem.levels problem j do
          if admissible p j h then
            cheapest :=
              Float.min !cheapest (Problem.cost problem ~node:j ~level:h)
        done
      done;
      extra := Float.max !extra !cheapest
    end
  done;
  base +. !extra
