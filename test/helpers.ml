(* Shared helpers for the test-suite. *)

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec scan i = i + m <= n && (String.sub s i m = affix || scan (i + 1)) in
  m = 0 || scan 0

let check_contains name s affix =
  Alcotest.(check bool)
    (Printf.sprintf "%s: output contains %S" name affix)
    true (contains s affix)

(* A tiny deterministic problem factory used across suites: [n] processes
   in a random DAG over a library of [lib] nodes with [levels]
   h-versions. *)
let synthetic_problem ?(seed = 1234) ?(n = 12) ?(ser = 1e-11) ?(hpd = 0.25) ()
    =
  let spec =
    Ftes_gen.Workload.generate_spec ~seed ~index:0 ~n_processes:n ()
  in
  Ftes_gen.Workload.problem_of_spec { Ftes_gen.Workload.ser; hpd } spec

(* Toy instances small enough for [Ftes_oracle.Exhaustive.run] (and the
   exact branch-and-bound): [n] processes over a [lib]-node library
   with [levels] h-versions each, at a SER high enough that hardening
   and re-execution decisions actually matter. *)
let small_problem ?(n = 6) ?(lib = 2) ?(levels = 3) ?(ser = 1e-10)
    ?(hpd = 0.5) seed =
  let params =
    { Ftes_gen.Workload.default_params with
      Ftes_gen.Workload.n_library = lib;
      levels }
  in
  let spec =
    Ftes_gen.Workload.generate_spec ~params ~seed ~index:0 ~n_processes:n ()
  in
  Ftes_gen.Workload.problem_of_spec ~params
    { Ftes_gen.Workload.ser; hpd }
    spec

(* A random (all-members) design over the full library: random
   hardening levels, re-execution counts and mapping. *)
let random_design prng problem =
  let m = Ftes_model.Problem.n_library problem in
  let members = Array.init m Fun.id in
  let levels =
    Array.map
      (fun j -> 1 + Ftes_util.Prng.int prng (Ftes_model.Problem.levels problem j))
      members
  in
  let reexecs = Array.init m (fun _ -> Ftes_util.Prng.int prng 4) in
  let n = Ftes_model.Task_graph.n (Ftes_model.Problem.graph problem) in
  let mapping = Array.init n (fun _ -> Ftes_util.Prng.int prng m) in
  Ftes_model.Design.make problem ~members ~levels ~reexecs ~mapping

(* Policy sweeps shared by the equivalence / differential suites. *)
let named_bus_policies =
  [ ("fcfs", Ftes_sched.Bus.Fcfs);
    ("tdma", Ftes_sched.Bus.Tdma { slot_ms = 2.0 }) ]

let bus_policies = List.map snd named_bus_policies

let named_slack_policies =
  [ ("shared", Ftes_sched.Scheduler.Shared);
    ("conservative", Ftes_sched.Scheduler.Conservative);
    ("dedicated", Ftes_sched.Scheduler.Dedicated) ]

(* All five slack modes, the last two randomized per instance. *)
let slack_policies prng n =
  List.map snd named_slack_policies
  @ [ Ftes_sched.Scheduler.Per_process
        (Array.init n (fun _ -> Ftes_util.Prng.int prng 3));
      Ftes_sched.Scheduler.Checkpointed
        { kappa = Array.init n (fun _ -> 1 + Ftes_util.Prng.int prng 3);
          save_ms = 0.2 } ]

(* --- what-if delta generators (shared by test_whatif and the bench) --- *)

(* A valid-by-construction random delta of the given class: every
   generated delta applies cleanly to [problem] (edited costs stay
   strictly between their level neighbours, edited pfails respect the
   hardening monotonicity and stay in [0,1), factors are positive), so
   property tests exercise the warm path rather than the error path. *)
let delta_of_class prng problem cls =
  let module P = Ftes_model.Problem in
  let module Delta = Ftes_whatif.Delta in
  let app = problem.P.app in
  let float01 () = Ftes_util.Prng.float prng 1.0 in
  let jitter lo hi = lo +. ((hi -. lo) *. float01 ()) in
  let lib = P.n_library problem in
  let node = Ftes_util.Prng.int prng lib in
  let level = 1 + Ftes_util.Prng.int prng (P.levels problem node) in
  let proc = Ftes_util.Prng.int prng (P.n_processes problem) in
  match cls with
  | "deadline-set" ->
      Delta.Deadline_set
        (app.Ftes_model.Application.deadline_ms *. jitter 0.85 1.15)
  | "deadline-scale" -> Delta.Deadline_scale (jitter 0.85 1.15)
  | "period-set" ->
      Delta.Period_set (app.Ftes_model.Application.period_ms *. jitter 0.9 1.5)
  | "period-scale" -> Delta.Period_scale (jitter 0.9 1.5)
  | "gamma-set" ->
      (* gamma must stay in (0, 1); scaling down is always safe. *)
      Delta.Gamma_set (app.Ftes_model.Application.gamma *. jitter 0.5 1.0)
  | "wcet-scale" -> Delta.Wcet_scale { node; factor = jitter 0.9 1.2 }
  | "ser-scale" ->
      (* Same factor on every cell preserves the level monotonicity;
         keep the largest cell below 1. *)
      let worst = ref 0.0 in
      for l = 1 to P.levels problem node do
        for i = 0 to P.n_processes problem - 1 do
          worst := Float.max !worst (P.pfail problem ~node ~level:l ~proc:i)
        done
      done;
      let cap = if !worst > 0.0 then Float.min 2.0 (0.9 /. !worst) else 2.0 in
      Delta.Ser_scale { node; factor = jitter 0.5 (Float.max 0.6 cap) }
  | "hversion-cost-set" ->
      (* Stay strictly between the neighbouring levels' costs. *)
      let c = P.cost problem ~node ~level in
      let lo =
        if level > 1 then P.cost problem ~node ~level:(level - 1) else 0.0
      in
      let hi =
        if level < P.levels problem node then
          P.cost problem ~node ~level:(level + 1)
        else c *. 1.5
      in
      Delta.Hversion_cost_set
        { node; level; cost = lo +. ((hi -. lo) *. jitter 0.25 0.75) }
  | "hversion-wcet-set" ->
      let w = P.wcet problem ~node ~level ~proc in
      Delta.Hversion_wcet_set
        { node; level; proc; wcet_ms = w *. jitter 0.8 1.2 }
  | "hversion-pfail-set" ->
      (* Stay within [pfail(level+1), pfail(level-1)] for this process
         so the non-increasing-in-level invariant survives the edit. *)
      let p = P.pfail problem ~node ~level ~proc in
      let lo =
        if level < P.levels problem node then
          P.pfail problem ~node ~level:(level + 1) ~proc
        else p *. 0.5
      in
      let hi =
        if level > 1 then P.pfail problem ~node ~level:(level - 1) ~proc
        else Float.min 0.99 ((p *. 1.5) +. 1e-15)
      in
      Delta.Hversion_pfail_set
        { node; level; proc; pfail = lo +. ((hi -. lo) *. jitter 0.0 1.0) }
  | "node-add" ->
      (* Clone a library node under a fresh name; the checked
         constructor re-validates the copied tables. *)
      let src = P.node problem node in
      Delta.Node_add
        (Ftes_model.Platform.node_type
           ~name:(src.Ftes_model.Platform.node_name ^ "'")
           ~versions:src.Ftes_model.Platform.versions)
  | "node-remove" ->
      if lib < 2 then Delta.Deadline_scale (jitter 0.85 1.15)
      else Delta.Node_remove node
  | "kmax-set" -> Delta.Kmax_set (Ftes_util.Prng.int prng 15)
  | other -> invalid_arg ("Helpers.delta_of_class: unknown class " ^ other)

(* A random valid delta of a random class. *)
let small_delta prng problem =
  let classes = Ftes_whatif.Delta.class_names in
  delta_of_class prng problem
    (List.nth classes (Ftes_util.Prng.int prng (List.length classes)))

(* A (delta, perturbed problem) pair; the generators above are
   valid-by-construction, so [apply] cannot fail. *)
let perturbed_problem prng problem =
  let delta = small_delta prng problem in
  match Ftes_whatif.Delta.apply problem delta with
  | Ok perturbed -> (delta, perturbed)
  | Error e ->
      invalid_arg
        (Printf.sprintf "Helpers.perturbed_problem: generator emitted an \
                         inapplicable delta (%s)" e)

let design_on_all_nodes ?(levels = 1) ?(k = 0) problem =
  let m = Ftes_model.Problem.n_library problem in
  let members = Array.init m Fun.id in
  let mapping = Ftes_core.Mapping_opt.initial_mapping problem ~members in
  Ftes_model.Design.make problem ~members
    ~levels:(Array.make m levels)
    ~reexecs:(Array.make m k) ~mapping
