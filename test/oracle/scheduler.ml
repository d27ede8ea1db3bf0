(* O(n) rescan reference for [Ftes_sched.Scheduler.schedule]: every
   placement re-scans all unscheduled processes for the (max priority,
   lowest index) argmax, priorities come from a fresh generic
   bottom-level pass, and every transfer is booked through
   [Bus.transmit].  The production pass must match it bit for bit. *)

module Task_graph = Ftes_model.Task_graph
module Problem = Ftes_model.Problem
module Design = Ftes_model.Design
module Bus = Ftes_sched.Bus
module Schedule = Ftes_sched.Schedule
open Ftes_sched.Scheduler

let c_schedules = Ftes_obs.Metrics.counter "sched.schedules"

let priorities problem design =
  let graph = Problem.graph problem in
  let exec proc = Design.wcet problem design ~proc in
  let comm (e : Task_graph.edge) =
    if design.Design.mapping.(e.src) = design.Design.mapping.(e.dst) then 0.0
    else e.transmission_ms
  in
  Task_graph.bottom_levels graph ~exec ~comm

let validate_slack ~slack n =
  match slack with
  | Per_process budgets ->
      if Array.length budgets <> n then
        invalid_arg "Scheduler.schedule: per-process budget length mismatch";
      Array.iter
        (fun b ->
          if b < 0 then
            invalid_arg "Scheduler.schedule: negative per-process budget")
        budgets
  | Checkpointed { kappa; save_ms } ->
      if Array.length kappa <> n then
        invalid_arg "Scheduler.schedule: checkpoint vector length mismatch";
      Array.iter
        (fun c ->
          if c < 1 then
            invalid_arg "Scheduler.schedule: checkpoint counts must be >= 1")
        kappa;
      if save_ms < 0.0 || not (Float.is_finite save_ms) then
        invalid_arg "Scheduler.schedule: invalid checkpoint overhead"
  | Shared | Conservative | Dedicated -> ()

let schedule_impl ~slack ~bus problem design =
  let graph = Problem.graph problem in
  let n = Task_graph.n graph in
  validate_slack ~slack n;
  let members = Design.n_members design in
  let mu = problem.Problem.app.Ftes_model.Application.recovery_overhead_ms in
  let prio = priorities problem design in
  let mapping = design.Design.mapping in
  let k slot = design.Design.reexecs.(slot) in
  (* Per-node state. *)
  let node_avail = Array.make members 0.0 in
  let node_finish = Array.make members 0.0 in
  let max_exec = Array.make members 0.0 in
  (* Under checkpointing a fault re-executes only one segment, so the
     per-node slack is sized by the largest segment, not process. *)
  let max_recovery = Array.make members 0.0 in
  let last_commit = Array.make members 0.0 in
  let bus_state = Bus.create bus ~members in
  let entries = Array.make n None in
  let messages = ref [] in
  (* arrival.(p): earliest time all of p's inputs are on p's node. *)
  let arrival = Array.make n 0.0 in
  let remaining_preds = Array.init n (fun i -> Task_graph.in_degree graph i) in
  let scheduled = Array.make n false in
  let ready p = (not scheduled.(p)) && remaining_preds.(p) = 0 in
  let pick () =
    let best = ref (-1) in
    for p = n - 1 downto 0 do
      if ready p && (!best = -1 || prio.(p) >= prio.(!best)) then best := p
    done;
    !best
  in
  let place p =
    let slot = mapping.(p) in
    let raw_t = Design.wcet problem design ~proc:p in
    (* Checkpointing inflates the fault-free execution by the saves and
       shrinks the recovery unit to one segment. *)
    let t, recovery =
      match slack with
      | Checkpointed { kappa; save_ms } ->
          let segments = float_of_int kappa.(p) in
          ( raw_t +. ((segments -. 1.0) *. save_ms),
            raw_t /. segments )
      | Shared | Conservative | Dedicated | Per_process _ -> (raw_t, raw_t)
    in
    let start = Float.max node_avail.(slot) arrival.(p) in
    let finish = start +. t in
    if t > max_exec.(slot) then max_exec.(slot) <- t;
    if recovery > max_recovery.(slot) then max_recovery.(slot) <- recovery;
    (* The commit time is when the process's outputs may leave the node:
       nominally right away under the paper's model, after the shared
       worst-case slack under the sound variant, after the process's own
       slack without sharing. *)
    let commit =
      match slack with
      | Shared -> finish
      | Conservative ->
          finish +. (float_of_int (k slot) *. (max_exec.(slot) +. mu))
      | Dedicated -> finish +. (float_of_int (k slot) *. (t +. mu))
      | Per_process budgets ->
          finish +. (float_of_int budgets.(p) *. (t +. mu))
      | Checkpointed _ -> finish
    in
    entries.(p) <- Some { Schedule.proc = p; slot; start; finish; commit };
    node_finish.(slot) <- finish;
    last_commit.(slot) <- Float.max last_commit.(slot) commit;
    (node_avail.(slot) <-
       (match slack with
       | Shared | Conservative | Checkpointed _ -> finish
       | Dedicated | Per_process _ -> commit));
    (* Release successors; put cross-node outputs on the bus now
       (first-come-first-served). *)
    List.iter
      (fun (e : Task_graph.edge) ->
        let d = e.dst in
        let arrive =
          if mapping.(d) = slot then finish
          else begin
            let bus_start, bus_finish =
              Bus.transmit bus_state ~member:slot ~ready:commit
                ~duration:e.transmission_ms
            in
            messages := { Schedule.edge = e; bus_start; bus_finish } :: !messages;
            bus_finish
          end
        in
        if arrive > arrival.(d) then arrival.(d) <- arrive;
        remaining_preds.(d) <- remaining_preds.(d) - 1)
      (Task_graph.succs graph p);
    scheduled.(p) <- true
  in
  let rec run placed =
    if placed < n then begin
      let p = pick () in
      assert (p >= 0);
      place p;
      run (placed + 1)
    end
  in
  run 0;
  (* In Shared mode the re-executions of a node spill into one shared
     slack region after its nominal finish, sized by its largest
     process; in Dedicated mode each process already carries its own
     slack, so the node ends at the last commit. *)
  let node_worst =
    Array.init members (fun slot ->
        match slack with
        | Shared | Conservative ->
            if max_exec.(slot) = 0.0 then node_finish.(slot)
            else
              node_finish.(slot)
              +. (float_of_int (k slot) *. (max_exec.(slot) +. mu))
        | Checkpointed _ ->
            if max_recovery.(slot) = 0.0 then node_finish.(slot)
            else
              node_finish.(slot)
              +. (float_of_int (k slot) *. (max_recovery.(slot) +. mu))
        | Dedicated | Per_process _ -> last_commit.(slot))
  in
  let entries =
    Array.map
      (function
        | Some e -> e
        | None -> assert false (* every process was placed by [run] *))
      entries
  in
  let length = Array.fold_left Float.max 0.0 node_worst in
  { Schedule.entries; messages = List.rev !messages; node_finish; node_worst;
    length }

let schedule_reference ?(slack = Shared) ?(bus = Bus.Fcfs) problem design =
  Ftes_obs.Metrics.incr c_schedules;
  Ftes_obs.Span.with_ ~name:"sched/schedule" (fun () ->
      schedule_impl ~slack ~bus problem design)
