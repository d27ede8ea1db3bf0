module Task_graph = Ftes_model.Task_graph
module Application = Ftes_model.Application
module Platform = Ftes_model.Platform
module Problem = Ftes_model.Problem
module Hardening = Ftes_model.Hardening
module Fault_model = Ftes_faultsim.Fault_model

let n_processes = 32

let node_names = [| "ETM"; "ABS"; "TCM" |]

(* Functional clusters.  Home - 1.5x affinity keeps each cluster's
   processes naturally on its module; the cruise law (home = none) is
   free to move, which is where the mapping optimization earns its
   keep. *)
type cluster = Etm | Abs | Tcm | Core

let process_table =
  (* name, cluster, base WCET in ms on the home module. *)
  [| ("throttle_sensor", Etm, 14.0);
     ("pedal_filter", Etm, 16.0);
     ("throttle_pid", Etm, 18.0);
     ("throttle_limiter", Etm, 14.0);
     ("actuator_cmd", Etm, 18.0);
     ("actuator_monitor", Etm, 24.0);
     ("etm_diag", Etm, 20.0);
     ("wheel_fl", Abs, 16.0);
     ("wheel_fr", Abs, 16.0);
     ("wheel_rl", Abs, 16.0);
     ("wheel_rr", Abs, 16.0);
     ("wheel_filter", Abs, 20.0);
     ("vehicle_speed", Abs, 55.0);
     ("slip_detect", Abs, 18.0);
     ("brake_monitor", Abs, 26.0);
     ("abs_arbiter", Abs, 18.0);
     ("abs_diag", Abs, 24.0);
     ("gear_sensor", Tcm, 16.0);
     ("rpm_sensor", Tcm, 16.0);
     ("gear_state", Tcm, 20.0);
     ("shift_predict", Tcm, 22.0);
     ("torque_limit", Tcm, 18.0);
     ("tcm_diag", Tcm, 26.0);
     ("driver_buttons", Core, 10.0);
     ("target_speed", Core, 12.0);
     ("cruise_state", Core, 14.0);
     ("speed_error", Core, 12.0);
     ("pi_controller", Core, 18.0);
     ("feedforward", Core, 22.0);
     ("cmd_arbiter", Core, 14.0);
     ("safety_monitor", Core, 30.0);
     ("logger", Core, 26.0) |]

let process_names = Array.map (fun (name, _, _) -> name) process_table

let edge_table =
  (* src name, dst name, transmission ms. *)
  [ (* throttle chain *)
    ("throttle_sensor", "pedal_filter", 1.0);
    ("pedal_filter", "throttle_pid", 1.0);
    ("cmd_arbiter", "throttle_pid", 2.0);
    ("throttle_pid", "throttle_limiter", 1.0);
    ("torque_limit", "throttle_limiter", 2.0);
    ("throttle_limiter", "actuator_cmd", 1.0);
    ("actuator_cmd", "actuator_monitor", 1.0);
    ("actuator_monitor", "etm_diag", 1.0);
    (* wheel speed / braking *)
    ("wheel_fl", "wheel_filter", 1.0);
    ("wheel_fr", "wheel_filter", 1.0);
    ("wheel_rl", "wheel_filter", 1.0);
    ("wheel_rr", "wheel_filter", 1.0);
    ("wheel_filter", "vehicle_speed", 1.5);
    ("vehicle_speed", "slip_detect", 1.0);
    ("slip_detect", "abs_arbiter", 1.0);
    ("brake_monitor", "abs_arbiter", 1.0);
    ("abs_arbiter", "abs_diag", 1.0);
    (* transmission *)
    ("gear_sensor", "gear_state", 1.0);
    ("rpm_sensor", "gear_state", 1.0);
    ("vehicle_speed", "shift_predict", 2.0);
    ("gear_state", "shift_predict", 1.0);
    ("shift_predict", "torque_limit", 1.0);
    ("gear_state", "tcm_diag", 1.0);
    (* cruise law *)
    ("driver_buttons", "target_speed", 1.0);
    ("target_speed", "cruise_state", 1.0);
    ("brake_monitor", "cruise_state", 2.0);
    ("cruise_state", "speed_error", 1.0);
    ("vehicle_speed", "speed_error", 2.0);
    ("speed_error", "pi_controller", 1.0);
    ("target_speed", "feedforward", 1.0);
    ("pi_controller", "cmd_arbiter", 1.0);
    ("feedforward", "cmd_arbiter", 1.0);
    (* supervision *)
    ("cruise_state", "safety_monitor", 1.5);
    ("actuator_cmd", "safety_monitor", 2.0);
    ("safety_monitor", "logger", 1.0);
    ("abs_diag", "logger", 1.5) ]

let index_of_name =
  let table = Hashtbl.create 64 in
  Array.iteri (fun i (name, _, _) -> Hashtbl.add table name i) process_table;
  fun name ->
    match Hashtbl.find_opt table name with
    | Some i -> i
    | None -> invalid_arg ("Cruise_control: unknown process " ^ name)

let graph () =
  let edges =
    List.map
      (fun (src, dst, transmission_ms) ->
        { Task_graph.src = index_of_name src;
          dst = index_of_name dst;
          transmission_ms })
      edge_table
  in
  Task_graph.make ~n:n_processes edges

let off_home_penalty = 1.5

(* Global calibration of the (unpublished) absolute workload so that the
   paper's qualitative verdicts hold against the 300 ms deadline; see
   DESIGN.md. *)
let wcet_scale = 0.8

let home_of = function
  | Etm -> Some 0
  | Abs -> Some 1
  | Tcm -> Some 2
  | Core -> None

let base_wcet_on ~node proc =
  let _, cluster, base = process_table.(proc) in
  let base = base *. wcet_scale in
  match home_of cluster with
  | None -> base
  | Some home -> if home = node then base else base *. off_home_penalty

let levels = 5

let node_base_costs = [| 5.0; 6.0; 5.0 |]

let problem () =
  let app =
    Application.make ~name:"cruise-controller" ~process_names:(Array.copy process_names)
      ~graph:(graph ()) ~deadline_ms:300.0 ~gamma:1.2e-5 ~recovery_overhead_ms:3.0 ()
  in
  let library =
    Array.init (Array.length node_names) (fun node ->
        let versions =
          Array.init levels (fun idx ->
              let level = idx + 1 in
              let deg = Hardening.degradation ~hpd:0.25 ~level ~levels in
              let model =
                Fault_model.of_hardening ~clock_hz:1e9 ~reduction_factor:100.0
                  ~ser_per_cycle:2e-12 ~level ()
              in
              let wcet_ms =
                Array.init n_processes (fun proc ->
                    base_wcet_on ~node proc *. (1.0 +. deg))
              in
              let pfail =
                Array.map
                  (fun duration_ms ->
                    Fault_model.failure_probability model ~duration_ms)
                  wcet_ms
              in
              Platform.hversion ~level
                ~cost:(Hardening.linear_cost ~base:node_base_costs.(node) ~level)
                ~wcet_ms ~pfail)
        in
        Platform.node_type ~name:node_names.(node) ~versions)
  in
  Problem.make ~app ~library
