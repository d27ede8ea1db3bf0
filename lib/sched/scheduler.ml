module Task_graph = Ftes_model.Task_graph
module Problem = Ftes_model.Problem
module Design = Ftes_model.Design

type slack_mode =
  | Shared
  | Conservative
  | Dedicated
  | Per_process of int array
  | Checkpointed of { kappa : int array; save_ms : float }

let c_schedules = Ftes_obs.Metrics.counter "sched.schedules"

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

let dummy_entry =
  { Schedule.proc = -1; slot = -1; start = 0.0; finish = 0.0; commit = 0.0 }

(* What a pass returns: the full schedule, or only its length. *)
type _ output = Full : Schedule.t output | Length : float output

(* The one list-scheduling pass.  The ready set lives in a binary heap
   ordered (priority desc, index asc); WCETs are fetched once into a
   scratch vector and priorities are the bottom levels over that
   vector; working arrays come from the domain's scratch arena.

   For [Full], [record] is set: the pass builds the entry and message
   records, books every transfer through [Bus.transmit] (which
   validates it) and returns the schedule in freshly allocated arrays.
   For [Length] — the optimizer's inner loop — no records are built and
   every array comes from the arena, so a call allocates a constant
   handful of words whatever the graph size.  An FCFS bus is then one
   float of state (its next free instant), kept in an arena cell so the
   booking runs inline without boxing — same [max]/[+.] sequence as
   [Bus.transmit], whose validation is unreachable here (commit times
   are finite and non-negative by construction, transmission times are
   validated at graph build).  TDMA keeps the shared slot walk in
   [Bus].  Both modes run the same placement floats in the same order,
   so their lengths are bit-identical. *)
let pass : type a.
    a output -> slack:slack_mode -> bus:Bus.policy -> Problem.t -> Design.t -> a
    =
 fun output ~slack ~bus problem design ->
  let record = match output with Full -> true | Length -> false in
  Scratch.with_arena @@ fun arena : a ->
  let graph = Problem.graph problem in
  let n = Task_graph.n graph in
  validate_slack ~slack n;
  let members = Design.n_members design in
  let mu = problem.Problem.app.Ftes_model.Application.recovery_overhead_ms in
  let mapping = design.Design.mapping in
  let k slot = design.Design.reexecs.(slot) in
  let wcet = Scratch.floats arena ~slot:0 ~n in
  Design.wcet_into problem design ~out:wcet;
  let prio = Scratch.floats arena ~slot:8 ~n in
  Task_graph.bottom_levels_wcet graph ~wcet ~mapping ~out:prio;
  let node_avail = Scratch.floats arena ~slot:1 ~n:members in
  let max_exec = Scratch.floats arena ~slot:2 ~n:members in
  (* Under checkpointing a fault re-executes only one segment, so the
     per-node slack is sized by the largest segment, not process. *)
  let max_recovery = Scratch.floats arena ~slot:3 ~n:members in
  let last_commit = Scratch.floats arena ~slot:4 ~n:members in
  (* arrival.(p): earliest time all of p's inputs are on p's node. *)
  let arrival = Scratch.floats arena ~slot:5 ~n in
  let node_finish =
    if record then Array.make members 0.0
    else Scratch.floats arena ~slot:6 ~n:members
  in
  Array.fill node_avail 0 members 0.0;
  Array.fill max_exec 0 members 0.0;
  Array.fill max_recovery 0 members 0.0;
  Array.fill last_commit 0 members 0.0;
  Array.fill arrival 0 n 0.0;
  Array.fill node_finish 0 members 0.0;
  let entries = if record then Array.make n dummy_entry else [||] in
  let messages = ref [] in
  let bus_state = Bus.create bus ~members in
  let bus_free = Scratch.floats arena ~slot:7 ~n:1 in
  bus_free.(0) <- 0.0;
  let remaining_preds = Scratch.ints arena ~slot:0 ~n in
  Task_graph.in_degrees_into graph remaining_preds;
  let heap = Scratch.ints arena ~slot:1 ~n in
  let heap_len = ref 0 in
  (* Pop order: highest priority first, ties to the lower index.  The
     comparator is written out at each use so the sift loops run
     without closure calls on their hottest comparisons. *)
  let push p =
    heap.(!heap_len) <- p;
    let i = ref !heap_len in
    incr heap_len;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      let a = heap.(!i) and b = heap.(parent) in
      if prio.(a) > prio.(b) || (prio.(a) = prio.(b) && a < b) then begin
        heap.(parent) <- a;
        heap.(!i) <- b;
        i := parent
      end
      else continue := false
    done
  in
  let pop () =
    let top = heap.(0) in
    decr heap_len;
    heap.(0) <- heap.(!heap_len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let best = ref !i in
      if l < !heap_len then begin
        let a = heap.(l) and b = heap.(!best) in
        if prio.(a) > prio.(b) || (prio.(a) = prio.(b) && a < b) then
          best := l
      end;
      if r < !heap_len then begin
        let a = heap.(r) and b = heap.(!best) in
        if prio.(a) > prio.(b) || (prio.(a) = prio.(b) && a < b) then
          best := r
      end;
      if !best = !i then continue := false
      else begin
        let tmp = heap.(!best) in
        heap.(!best) <- heap.(!i);
        heap.(!i) <- tmp;
        i := !best
      end
    done;
    top
  in
  for p = 0 to n - 1 do
    if remaining_preds.(p) = 0 then push p
  done;
  (* Successors are released over the graph's CSR adjacency, which
     mirrors [Task_graph.succs] edge for edge. *)
  let succ_off = Task_graph.succ_offsets graph in
  let succ_dst = Task_graph.succ_dsts graph in
  let succ_tx = Task_graph.succ_txs graph in
  let place p =
    let slot = mapping.(p) in
    let raw_t = wcet.(p) in
    (* Checkpointing inflates the fault-free execution by the saves and
       shrinks the recovery unit to one segment.  Computed as two
       matches rather than one tuple so nothing is allocated. *)
    let t =
      match slack with
      | Checkpointed { kappa; save_ms } ->
          raw_t +. ((float_of_int kappa.(p) -. 1.0) *. save_ms)
      | Shared | Conservative | Dedicated | Per_process _ -> raw_t
    in
    let recovery =
      match slack with
      | Checkpointed { kappa; _ } -> raw_t /. float_of_int kappa.(p)
      | Shared | Conservative | Dedicated | Per_process _ -> raw_t
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
    if record then
      entries.(p) <- { Schedule.proc = p; slot; start; finish; commit };
    node_finish.(slot) <- finish;
    last_commit.(slot) <- Float.max last_commit.(slot) commit;
    (node_avail.(slot) <-
       (match slack with
       | Shared | Conservative | Checkpointed _ -> finish
       | Dedicated | Per_process _ -> commit));
    (* Release successors; put cross-node outputs on the bus now
       (first-come-first-served).  The arrival stays inline: routing it
       through a helper would box one float per edge. *)
    for ei = succ_off.(p) to succ_off.(p + 1) - 1 do
      let d = succ_dst.(ei) in
      let arrive =
        if mapping.(d) = slot then finish
        else if record then begin
          let edge =
            { Task_graph.src = p; dst = d; transmission_ms = succ_tx.(ei) }
          in
          let bus_start, bus_finish =
            Bus.transmit bus_state ~member:slot ~ready:commit
              ~duration:edge.transmission_ms
          in
          messages := { Schedule.edge; bus_start; bus_finish } :: !messages;
          bus_finish
        end
        else begin
          match bus with
          | Bus.Fcfs ->
              let bus_start = Float.max bus_free.(0) commit in
              let bus_finish = bus_start +. succ_tx.(ei) in
              bus_free.(0) <- bus_finish;
              bus_finish
          | Bus.Tdma _ ->
              Bus.transmit_finish bus_state ~member:slot ~ready:commit
                ~duration:succ_tx.(ei)
        end
      in
      if arrive > arrival.(d) then arrival.(d) <- arrive;
      remaining_preds.(d) <- remaining_preds.(d) - 1;
      if remaining_preds.(d) = 0 then push d
    done
  in
  for _ = 1 to n do
    place (pop ())
  done;
  (* In Shared mode the re-executions of a node spill into one shared
     slack region after its nominal finish, sized by its largest
     process; in Dedicated mode each process already carries its own
     slack, so the node ends at the last commit.  The length folds the
     node maxima in slot order from [0.0]. *)
  let node_worst = if record then Array.make members 0.0 else [||] in
  let length = ref 0.0 in
  for slot = 0 to members - 1 do
    let worst =
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
      | Dedicated | Per_process _ -> last_commit.(slot)
    in
    if record then node_worst.(slot) <- worst;
    length := Float.max !length worst
  done;
  match output with
  | Full ->
      { Schedule.entries; messages = List.rev !messages; node_finish;
        node_worst; length = !length }
  | Length -> !length

let run output ~slack ~bus problem design =
  Ftes_obs.Metrics.incr c_schedules;
  Ftes_obs.Span.with_ ~name:"sched/schedule" (fun () ->
      pass output ~slack ~bus problem design)

let schedule ?(slack = Shared) ?(bus = Bus.Fcfs) problem design =
  run Full ~slack ~bus problem design

let schedule_length ?(slack = Shared) ?(bus = Bus.Fcfs) problem design =
  run Length ~slack ~bus problem design

let is_schedulable ?slack ?bus problem design =
  let sl = schedule_length ?slack ?bus problem design in
  Ftes_util.Tolerance.leq sl
    problem.Problem.app.Ftes_model.Application.deadline_ms
