module Prng = Ftes_util.Prng
module Task_graph = Ftes_model.Task_graph
module Application = Ftes_model.Application
module Problem = Ftes_model.Problem
module Design = Ftes_model.Design
module Scheduler = Ftes_sched.Scheduler

type params = {
  n_library : int;
  levels : int;
  base_wcet_range : float * float;
  cost_range : float * float;
  speed_range : float * float;
  mu_fraction_range : float * float;
  gamma_range : float * float;
  deadline_factor_range : float * float;
  reduction_factor : float;
  clock_hz : float;
}

let default_params =
  { n_library = 4;
    levels = 5;
    base_wcet_range = (1.0, 20.0);
    cost_range = (1.0, 6.0);
    speed_range = (1.0, 1.75);
    mu_fraction_range = (0.01, 0.10);
    gamma_range = (7.5e-6, 2.5e-5);
    deadline_factor_range = (1.1, 2.7);
    reduction_factor = 100.0;
    clock_hz = 1e9 }

type app_spec = {
  index : int;
  n_processes : int;
  graph : Task_graph.t;
  base_wcets_ms : float array;
  node_specs : Platform_gen.node_spec array;
  gamma : float;
  mu_ms : float;
  deadline_ms : float;
}

type cell = { ser : float; hpd : float }

let library_of ?(params = default_params) cell spec =
  let tech =
    Platform_gen.tech ~reduction_factor:params.reduction_factor
      ~clock_hz:params.clock_hz ~ser_per_cycle:cell.ser ()
  in
  Array.map
    (fun node_spec ->
      Platform_gen.node_type ~tech ~hpd:cell.hpd
        ~base_wcets_ms:spec.base_wcets_ms node_spec)
    spec.node_specs

let problem_of_spec ?(params = default_params) cell spec =
  let app =
    Application.make
      ~name:(Printf.sprintf "synthetic-%03d" spec.index)
      ~graph:spec.graph ~deadline_ms:spec.deadline_ms ~gamma:spec.gamma
      ~recovery_overhead_ms:spec.mu_ms ()
  in
  Problem.make ~app ~library:(library_of ~params cell spec)

(* The deadline anchor: fault-free schedule length of a greedy mapping
   on the full architecture at minimum hardening.  Level-1 tables are
   identical in every cell (the minimum level always degrades by 1% and
   carries the whole SER scale in pfail only), so this anchor — and the
   deadline derived from it — is independent of both SER and HPD. *)
let no_fault_length ~params spec =
  let anchor_cell = { ser = 1e-12; hpd = 0.05 } in
  let provisional = { spec with deadline_ms = 1e12; gamma = 1e-9 } in
  let problem = problem_of_spec ~params anchor_cell provisional in
  let members = Array.init params.n_library Fun.id in
  let mapping = Ftes_core.Mapping_opt.initial_mapping problem ~members in
  let m = Array.length members in
  let design =
    Design.make problem ~members ~levels:(Array.make m 1)
      ~reexecs:(Array.make m 0) ~mapping
  in
  Scheduler.schedule_length problem design

let generate_spec ?(params = default_params) ~seed ~index ~n_processes () =
  let prng = Prng.create (seed + (7919 * index) + (104729 * n_processes)) in
  let graph_prng = Prng.split prng in
  let graph = Dag_gen.generate graph_prng (Dag_gen.default_params ~n:n_processes) in
  let lo_w, hi_w = params.base_wcet_range in
  let base_wcets_ms =
    Array.init n_processes (fun _ -> Prng.float_in prng lo_w hi_w)
  in
  let lo_c, hi_c = params.cost_range in
  let lo_s, hi_s = params.speed_range in
  let node_specs =
    Array.init params.n_library (fun j ->
        { Platform_gen.name = Printf.sprintf "N%d" (j + 1);
          base_cost = Float.round (Prng.float_in prng lo_c hi_c);
          speed = (if j = 0 then 1.0 else Prng.float_in prng lo_s hi_s);
          levels = params.levels })
  in
  let lo_g, hi_g = params.gamma_range in
  let gamma = Prng.float_in prng lo_g hi_g in
  let mean_wcet =
    Array.fold_left ( +. ) 0.0 base_wcets_ms /. float_of_int n_processes
  in
  let lo_m, hi_m = params.mu_fraction_range in
  let mu_ms = Prng.float_in prng lo_m hi_m *. mean_wcet in
  let spec =
    { index; n_processes; graph; base_wcets_ms; node_specs; gamma; mu_ms;
      deadline_ms = 1.0 (* placeholder until anchored below *) }
  in
  let anchor = no_fault_length ~params spec in
  let lo_d, hi_d = params.deadline_factor_range in
  let deadline_ms = anchor *. Prng.float_in prng lo_d hi_d in
  { spec with deadline_ms }

(* The population rule: the first half of the suite gets 20 processes,
   the second half 40.  It depends only on (index, count), and
   generate_spec depends only on (seed, index, n_processes), so any
   slice of the suite is generated exactly as it would be inside the
   full population — the property campaign sharding relies on. *)
let suite_processes ~count index = if index < count / 2 then 20 else 40

let suite_slice ?(params = default_params) ~count ~seed ~lo ~hi () =
  if lo < 0 || hi < lo || hi > count then
    invalid_arg
      (Printf.sprintf "Workload.suite_slice: bad range [%d, %d) of %d" lo hi
         count);
  List.init (hi - lo) (fun i ->
      let index = lo + i in
      generate_spec ~params ~seed ~index
        ~n_processes:(suite_processes ~count index) ())

let paper_suite ?(params = default_params) ?(count = 150) ~seed () =
  suite_slice ~params ~count ~seed ~lo:0 ~hi:count ()
