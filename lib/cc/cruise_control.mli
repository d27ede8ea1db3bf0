(** The real-life case study of Section 7: a vehicle cruise controller
    (CC) of 32 processes on three computation nodes — the Electronic
    Throttle Module (ETM), the Anti-lock Braking System (ABS) and the
    Transmission Control Module (TCM).

    Parameters from the paper: deadline 300 ms, reliability goal
    rho = 1 - 1.2e-5 per hour, SER of the least hardened versions
    2e-12 per cycle, five h-versions, HPD = 25%, linear cost functions,
    recovery overhead within 1-10% of the average execution time.

    The process set is not published; we model the CC as four
    functional clusters (throttle control on the ETM, wheel-speed
    sensing and braking on the ABS, gear management on the TCM, and the
    cruise control law proper, which can run anywhere) with WCETs sized
    so that the paper's qualitative result is reproduced: the
    application is {e unschedulable} under MIN, schedulable under both
    MAX and OPT, and OPT is far cheaper than MAX. *)

val process_names : string array

val problem : unit -> Ftes_model.Problem.t
(** The full problem instance, with the paper's parameters.
    Cluster processes run 1.5x slower away from their home module; the
    cruise-law processes are equally fast everywhere. *)

val graph : unit -> Ftes_model.Task_graph.t
(** Just the process graph (for documentation / DOT export). *)
