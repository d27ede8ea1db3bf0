type hardening_policy = Optimize | Fixed_min | Fixed_max

type t = {
  tabu_tenure : int;
  waiting_boost : int;
  max_stall : int;
  max_iterations : int;
  move_candidates : int;
  kmax : int;
  slack : Ftes_sched.Scheduler.slack_mode;
  bus : Ftes_sched.Bus.policy;
  hardening : hardening_policy;
  certify : bool;
}

let make ?(tabu_tenure = 3) ?(waiting_boost = 12) ?(max_stall = 10)
    ?(max_iterations = 120) ?(move_candidates = 5) ?(kmax = 12)
    ?(slack = Ftes_sched.Scheduler.Shared) ?(bus = Ftes_sched.Bus.Fcfs)
    ?(hardening = Optimize) ?(certify = false) () =
  if tabu_tenure < 0 then invalid_arg "Config.make: negative tabu_tenure";
  if max_stall < 0 then invalid_arg "Config.make: negative max_stall";
  if max_iterations < 0 then invalid_arg "Config.make: negative max_iterations";
  if move_candidates < 1 then
    invalid_arg "Config.make: move_candidates must be >= 1";
  if kmax < 0 then invalid_arg "Config.make: negative kmax";
  { tabu_tenure; waiting_boost; max_stall; max_iterations; move_candidates;
    kmax; slack; bus; hardening; certify }

let default = make ()

(* Builders, not record updates, are the supported way to derive
   configurations: construction sites survive new knobs unchanged. *)
let with_tabu_tenure tabu_tenure t = { t with tabu_tenure }

let with_waiting_boost waiting_boost t = { t with waiting_boost }

let with_max_stall max_stall t = { t with max_stall }

let with_max_iterations max_iterations t = { t with max_iterations }

let with_move_candidates move_candidates t = { t with move_candidates }

let with_kmax kmax t = { t with kmax }

let with_slack slack t = { t with slack }

let with_bus bus t = { t with bus }

let with_hardening hardening t = { t with hardening }

let with_certify certify t = { t with certify }

let min_strategy = with_hardening Fixed_min default

let max_strategy = with_hardening Fixed_max default

let policy_name = function
  | Optimize -> "OPT"
  | Fixed_min -> "MIN"
  | Fixed_max -> "MAX"
