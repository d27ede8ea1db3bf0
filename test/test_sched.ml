(* Tests for the recovery-slack scheduler, pinned against every
   schedulability verdict of the paper's Fig. 3 and Fig. 4. *)

module Scheduler = Ftes_sched.Scheduler
module Schedule = Ftes_sched.Schedule
module Design = Ftes_model.Design
module Problem = Ftes_model.Problem
module Task_graph = Ftes_model.Task_graph

let check_float = Alcotest.(check (float 1e-9))

let fig1 = Ftes_cc.Fig_examples.fig1_problem

let fig3_design level k =
  let problem = Ftes_cc.Fig_examples.fig3_problem () in
  let design =
    Design.make problem ~members:[| 0 |] ~levels:[| level |] ~reexecs:[| k |]
      ~mapping:[| 0 |]
  in
  (problem, design)

(* --- Fig. 3: single process, worst cases 680 / 340 / 340 --- *)

let test_fig3_lengths () =
  let check level k expected =
    let problem, design = fig3_design level k in
    check_float
      (Printf.sprintf "h=%d k=%d" level k)
      expected
      (Scheduler.schedule_length problem design)
  in
  check 1 6 680.0;
  check 2 2 340.0;
  check 3 1 340.0

let test_fig3_schedulability () =
  let problem, design = fig3_design 1 6 in
  Alcotest.(check bool) "h1 k6 misses 360" false
    (Scheduler.is_schedulable problem design);
  let problem, design = fig3_design 2 2 in
  Alcotest.(check bool) "h2 k2 fits" true (Scheduler.is_schedulable problem design)

(* --- Fig. 4: the five alternatives --- *)

let fig4_cases problem =
  [ ("4a", Ftes_cc.Fig_examples.fig4a problem, 340.0, true);
    ("4b", Ftes_cc.Fig_examples.fig4b problem, 540.0, false);
    ("4c", Ftes_cc.Fig_examples.fig4c problem, 450.0, false);
    ("4d", Ftes_cc.Fig_examples.fig4d problem, 390.0, false);
    ("4e", Ftes_cc.Fig_examples.fig4e problem, 330.0, true) ]

let test_fig4_lengths () =
  let problem = fig1 () in
  List.iter
    (fun (name, design, expected, _) ->
      check_float name expected (Scheduler.schedule_length problem design))
    (fig4_cases problem)

let test_fig4_verdicts () =
  let problem = fig1 () in
  List.iter
    (fun (name, design, _, schedulable) ->
      Alcotest.(check bool) name schedulable
        (Scheduler.is_schedulable problem design))
    (fig4_cases problem)

(* --- Structure of produced schedules --- *)

let test_schedule_entries () =
  let problem = fig1 () in
  let design = Ftes_cc.Fig_examples.fig4a problem in
  let s = Scheduler.schedule problem design in
  Alcotest.(check int) "one entry per process" 4 (Array.length s.Schedule.entries);
  let e0 = Schedule.entry s ~proc:0 in
  check_float "P1 starts at 0" 0.0 e0.Schedule.start;
  check_float "P1 runs its WCET" 75.0 e0.Schedule.finish;
  Alcotest.(check int) "P1 on N1" 0 e0.Schedule.slot

let test_messages_only_cross_node () =
  let problem = fig1 () in
  let design = Ftes_cc.Fig_examples.fig4a problem in
  let s = Scheduler.schedule problem design in
  (* Mapping {P1,P2} vs {P3,P4}: crossing edges are P1->P3 and P2->P4. *)
  let crossing =
    List.map
      (fun m -> (m.Schedule.edge.Task_graph.src, m.Schedule.edge.Task_graph.dst))
      s.Schedule.messages
    |> List.sort compare
  in
  Alcotest.(check (list (pair int int))) "bus messages" [ (0, 2); (1, 3) ] crossing

let test_mono_has_no_messages () =
  let problem = fig1 () in
  let design = Ftes_cc.Fig_examples.fig4e problem in
  let s = Scheduler.schedule problem design in
  Alcotest.(check int) "no bus traffic on one node" 0
    (List.length s.Schedule.messages)

let test_validate_fig4 () =
  let problem = fig1 () in
  List.iter
    (fun (name, design, _, _) ->
      let s = Scheduler.schedule problem design in
      match Schedule.validate problem design s with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: invalid schedule: %s" name msg)
    (fig4_cases problem)

let test_priorities_are_bottom_levels () =
  let problem = fig1 () in
  let design = Ftes_cc.Fig_examples.fig4e problem in
  let wcet = Array.make (Problem.n_processes problem) 0.0 in
  Design.wcet_into problem design ~out:wcet;
  (* NaN fill: the pass must overwrite every entry without reading it. *)
  let prio = Array.make (Array.length wcet) Float.nan in
  Task_graph.bottom_levels_wcet (Problem.graph problem) ~wcet
    ~mapping:design.Design.mapping ~out:prio;
  (* Mono-node: no communication counted; exec times at N2 h3. *)
  check_float "sink P4" 90.0 prio.(3);
  check_float "P2 = t2 + t4" 180.0 prio.(1);
  check_float "P3 = t3 + t4" 165.0 prio.(2);
  check_float "source P1" (75.0 +. 180.0) prio.(0)

let test_utilization () =
  let problem = fig1 () in
  let design = Ftes_cc.Fig_examples.fig4e problem in
  let s = Scheduler.schedule problem design in
  check_float "mono node fully busy" 1.0 (Schedule.utilization s ~slot:0)

let test_gantt_renders () =
  let problem = fig1 () in
  let design = Ftes_cc.Fig_examples.fig4a problem in
  let s = Scheduler.schedule problem design in
  let g = Schedule.to_gantt problem design s in
  Helpers.check_contains "gantt" g "N1";
  Helpers.check_contains "gantt" g "N2";
  Helpers.check_contains "gantt" g "bus";
  Helpers.check_contains "gantt" g "slack"

(* --- Slack policies --- *)

let test_slack_mode_ordering () =
  let problem = fig1 () in
  let design = Ftes_cc.Fig_examples.fig4a problem in
  let shared = Scheduler.schedule_length ~slack:Scheduler.Shared problem design in
  let conservative =
    Scheduler.schedule_length ~slack:Scheduler.Conservative problem design
  in
  let dedicated =
    Scheduler.schedule_length ~slack:Scheduler.Dedicated problem design
  in
  Alcotest.(check bool) "shared <= conservative" true (shared <= conservative +. 1e-9);
  Alcotest.(check bool) "conservative <= dedicated" true
    (conservative <= dedicated +. 1e-9)

let test_zero_k_modes_agree () =
  let problem = fig1 () in
  let design =
    Design.with_reexecs (Ftes_cc.Fig_examples.fig4a problem) [| 0; 0 |]
  in
  let shared = Scheduler.schedule_length ~slack:Scheduler.Shared problem design in
  let conservative =
    Scheduler.schedule_length ~slack:Scheduler.Conservative problem design
  in
  let dedicated =
    Scheduler.schedule_length ~slack:Scheduler.Dedicated problem design
  in
  check_float "no slack -> same" shared conservative;
  check_float "no slack -> same (dedicated)" shared dedicated

let test_per_process_zero_budgets () =
  (* All-zero per-process budgets coincide with the fault-free shared
     schedule. *)
  let problem = fig1 () in
  let design =
    Design.with_reexecs (Ftes_cc.Fig_examples.fig4a problem) [| 0; 0 |]
  in
  let shared = Scheduler.schedule_length problem design in
  let pp =
    Scheduler.schedule_length
      ~slack:(Scheduler.Per_process (Array.make 4 0))
      problem design
  in
  check_float "identical without retries" shared pp

let test_dedicated_commit_contract () =
  let problem = fig1 () in
  let design = Ftes_cc.Fig_examples.fig4b problem in
  let mu = problem.Problem.app.Ftes_model.Application.recovery_overhead_ms in
  let s = Scheduler.schedule ~slack:Scheduler.Dedicated problem design in
  Array.iter
    (fun e ->
      let t = e.Schedule.finish -. e.Schedule.start in
      let k = design.Design.reexecs.(e.Schedule.slot) in
      check_float
        (Printf.sprintf "dedicated commit of P%d" (e.Schedule.proc + 1))
        (e.Schedule.finish +. (float_of_int k *. (t +. mu)))
        e.Schedule.commit)
    s.Schedule.entries

let test_shared_worst_end_contract () =
  let problem = fig1 () in
  let design = Ftes_cc.Fig_examples.fig4a problem in
  let mu = problem.Problem.app.Ftes_model.Application.recovery_overhead_ms in
  let s = Scheduler.schedule ~slack:Scheduler.Shared problem design in
  Array.iteri
    (fun slot worst ->
      let max_t =
        Array.fold_left
          (fun acc e ->
            if e.Schedule.slot = slot then
              Float.max acc (e.Schedule.finish -. e.Schedule.start)
            else acc)
          0.0 s.Schedule.entries
      in
      let k = design.Design.reexecs.(slot) in
      check_float
        (Printf.sprintf "slack region of slot %d" slot)
        (s.Schedule.node_finish.(slot) +. (float_of_int k *. (max_t +. mu)))
        worst)
    s.Schedule.node_worst

(* --- Bus arbitration --- *)

module Bus = Ftes_sched.Bus

let test_bus_fcfs () =
  let bus = Bus.create Bus.Fcfs ~members:2 in
  let s1, f1 = Bus.transmit bus ~member:0 ~ready:5.0 ~duration:3.0 in
  check_float "first message immediate" 5.0 s1;
  check_float "first message end" 8.0 f1;
  let s2, f2 = Bus.transmit bus ~member:1 ~ready:6.0 ~duration:2.0 in
  check_float "second waits for the bus" 8.0 s2;
  check_float "second end" 10.0 f2;
  let s3, _ = Bus.transmit bus ~member:0 ~ready:20.0 ~duration:1.0 in
  check_float "idle bus serves immediately" 20.0 s3

let test_bus_tdma_own_slot () =
  (* 2 members, 10 ms slots: member 0 owns [0,10), [20,30), ...;
     member 1 owns [10,20), [30,40), ... *)
  let bus = Bus.create (Bus.Tdma { slot_ms = 10.0 }) ~members:2 in
  let s, f = Bus.transmit bus ~member:0 ~ready:2.0 ~duration:3.0 in
  check_float "starts inside own slot" 2.0 s;
  check_float "fits in the slot" 5.0 f;
  let s, f = Bus.transmit bus ~member:1 ~ready:2.0 ~duration:3.0 in
  check_float "waits for its slot" 10.0 s;
  check_float "transmits there" 13.0 f

let test_bus_tdma_spans_rounds () =
  let bus = Bus.create (Bus.Tdma { slot_ms = 10.0 }) ~members:2 in
  (* 15 ms from member 0 starting at 0: 10 ms in [0,10) + 5 ms in [20,25). *)
  let s, f = Bus.transmit bus ~member:0 ~ready:0.0 ~duration:15.0 in
  check_float "starts at slot begin" 0.0 s;
  check_float "finishes in the next round" 25.0 f

let test_bus_tdma_serializes_same_member () =
  let bus = Bus.create (Bus.Tdma { slot_ms = 10.0 }) ~members:2 in
  let _, f1 = Bus.transmit bus ~member:0 ~ready:0.0 ~duration:4.0 in
  let s2, _ = Bus.transmit bus ~member:0 ~ready:0.0 ~duration:4.0 in
  Alcotest.(check bool) "second message after the first" true (s2 >= f1)

let test_bus_tdma_missed_slot () =
  let bus = Bus.create (Bus.Tdma { slot_ms = 10.0 }) ~members:2 in
  (* Ready at 9.5 in a 10 ms slot: a 3 ms message cannot finish there and
     is not preempted mid-slot boundary; it takes the 0.5 ms tail and
     continues in the next round. *)
  let s, f = Bus.transmit bus ~member:0 ~ready:9.5 ~duration:3.0 in
  check_float "uses the slot tail" 9.5 s;
  check_float "spills into the next own slot" 22.5 f

let test_bus_validation () =
  Alcotest.check_raises "bad slot"
    (Invalid_argument "Bus.create: TDMA slot must be positive") (fun () ->
      ignore (Bus.create (Bus.Tdma { slot_ms = 0.0 }) ~members:2));
  Alcotest.check_raises "bad members"
    (Invalid_argument "Bus.create: member count must be positive") (fun () ->
      ignore (Bus.create Bus.Fcfs ~members:0));
  let bus = Bus.create Bus.Fcfs ~members:2 in
  Alcotest.check_raises "member range"
    (Invalid_argument "Bus.transmit: member out of range") (fun () ->
      ignore (Bus.transmit bus ~member:2 ~ready:0.0 ~duration:1.0))

let test_bus_round_length () =
  Alcotest.(check (option (float 1e-9))) "fcfs" None
    (Bus.round_length_ms (Bus.create Bus.Fcfs ~members:3));
  Alcotest.(check (option (float 1e-9))) "tdma" (Some 30.0)
    (Bus.round_length_ms (Bus.create (Bus.Tdma { slot_ms = 10.0 }) ~members:3))

let test_schedule_under_tdma () =
  let problem = fig1 () in
  let design = Ftes_cc.Fig_examples.fig4a problem in
  let tdma = Bus.Tdma { slot_ms = 10.0 } in
  let s = Scheduler.schedule ~bus:tdma problem design in
  (match Schedule.validate problem design s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "TDMA schedule invalid: %s" msg);
  (* On fig4a both messages come from the same node, so TDMA can only
     delay them relative to FCFS. *)
  Alcotest.(check bool) "TDMA SL >= FCFS SL on fig4a" true
    (Schedule.length s >= Scheduler.schedule_length problem design -. 1e-9)

(* --- Properties over generated problems --- *)

let random_design problem seed =
  let prng = Ftes_util.Prng.create seed in
  let lib = Problem.n_library problem in
  let m = 1 + Ftes_util.Prng.int prng lib in
  let pool = Array.init lib Fun.id in
  Ftes_util.Prng.shuffle prng pool;
  let members = Array.sub pool 0 m in
  let levels =
    Array.map (fun j -> 1 + Ftes_util.Prng.int prng (Problem.levels problem j)) members
  in
  let reexecs = Array.init m (fun _ -> Ftes_util.Prng.int prng 4) in
  let mapping =
    Array.init (Problem.n_processes problem) (fun _ -> Ftes_util.Prng.int prng m)
  in
  Design.make problem ~members ~levels ~reexecs ~mapping

let prop_schedules_validate =
  QCheck.Test.make ~count:100
    ~name:"schedules of random designs pass structural validation"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let problem = Helpers.synthetic_problem ~seed:(seed / 7) ~n:10 () in
      let design = random_design problem seed in
      List.for_all
        (fun slack ->
          let s = Scheduler.schedule ~slack problem design in
          Schedule.validate problem design s = Ok ())
        [ Scheduler.Shared; Scheduler.Conservative; Scheduler.Dedicated ])

(* Only Shared <= Conservative is a theorem (identical placement order,
   later commits).  Dedicated is incomparable with both: its per-process
   slack can hide inside idle gaps that the shared end-of-node slack
   (charged at the node's largest WCET) cannot exploit, and vice
   versa. *)
let prop_slack_ordering =
  QCheck.Test.make ~count:100 ~name:"SL(shared) <= SL(conservative)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let problem = Helpers.synthetic_problem ~seed:(seed / 7) ~n:10 () in
      let design = random_design problem seed in
      let sl mode = Scheduler.schedule_length ~slack:mode problem design in
      sl Scheduler.Shared <= sl Scheduler.Conservative +. 1e-9)

let prop_length_at_least_critical_path =
  QCheck.Test.make ~count:100 ~name:"SL >= design-aware critical path"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let problem = Helpers.synthetic_problem ~seed:(seed / 7) ~n:10 () in
      let design = random_design problem seed in
      let graph = Problem.graph problem in
      let cp =
        Task_graph.longest_path graph
          ~exec:(fun proc -> Design.wcet problem design ~proc)
          ~comm:(fun e ->
            if design.Design.mapping.(e.Task_graph.src)
               = design.Design.mapping.(e.Task_graph.dst)
            then 0.0
            else e.Task_graph.transmission_ms)
      in
      Scheduler.schedule_length problem design >= cp -. 1e-9)

(* Every TDMA transmission starts inside a slot owned by its sender. *)
let prop_tdma_respects_slots =
  QCheck.Test.make ~count:60 ~name:"TDMA messages start in the sender's slot"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let problem = Helpers.synthetic_problem ~seed:(seed / 7) ~n:10 () in
      let design = random_design problem seed in
      let slot_ms = 2.0 in
      let members = Design.n_members design in
      let s =
        Scheduler.schedule ~bus:(Bus.Tdma { slot_ms }) problem design
      in
      List.for_all
        (fun (m : Schedule.message) ->
          let sender = design.Design.mapping.(m.Schedule.edge.Task_graph.src) in
          let slot_index =
            int_of_float (Float.floor ((m.Schedule.bus_start +. 1e-9) /. slot_ms))
          in
          slot_index mod members = sender)
        s.Schedule.messages)

let prop_more_reexecs_never_shorten =
  QCheck.Test.make ~count:100 ~name:"SL grows with re-executions"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let problem = Helpers.synthetic_problem ~seed:(seed / 7) ~n:10 () in
      let design = random_design problem seed in
      let bumped =
        Design.with_reexecs design
          (Array.map (fun k -> k + 1) design.Design.reexecs)
      in
      Scheduler.schedule_length problem bumped
      >= Scheduler.schedule_length problem design -. 1e-9)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ftes_sched"
    [ ( "fig3",
        [ Alcotest.test_case "worst-case lengths 680/340/340" `Quick test_fig3_lengths;
          Alcotest.test_case "schedulability verdicts" `Quick test_fig3_schedulability ] );
      ( "fig4",
        [ Alcotest.test_case "lengths 340/540/450/390/330" `Quick test_fig4_lengths;
          Alcotest.test_case "verdicts" `Quick test_fig4_verdicts ] );
      ( "structure",
        [ Alcotest.test_case "entries" `Quick test_schedule_entries;
          Alcotest.test_case "bus messages cross nodes only" `Quick
            test_messages_only_cross_node;
          Alcotest.test_case "mono architecture has no messages" `Quick
            test_mono_has_no_messages;
          Alcotest.test_case "validation of fig4 schedules" `Quick test_validate_fig4;
          Alcotest.test_case "priorities" `Quick test_priorities_are_bottom_levels;
          Alcotest.test_case "utilization" `Quick test_utilization;
          Alcotest.test_case "gantt" `Quick test_gantt_renders ] );
      ( "slack policies",
        [ Alcotest.test_case "ordering on fig4a" `Quick test_slack_mode_ordering;
          Alcotest.test_case "k=0 makes modes agree" `Quick test_zero_k_modes_agree;
          Alcotest.test_case "per-process zero budgets" `Quick
            test_per_process_zero_budgets;
          Alcotest.test_case "dedicated commit contract" `Quick
            test_dedicated_commit_contract;
          Alcotest.test_case "shared slack contract" `Quick
            test_shared_worst_end_contract ] );
      ( "bus",
        [ Alcotest.test_case "fcfs" `Quick test_bus_fcfs;
          Alcotest.test_case "tdma own slot" `Quick test_bus_tdma_own_slot;
          Alcotest.test_case "tdma spans rounds" `Quick test_bus_tdma_spans_rounds;
          Alcotest.test_case "tdma serializes per member" `Quick
            test_bus_tdma_serializes_same_member;
          Alcotest.test_case "tdma slot tail" `Quick test_bus_tdma_missed_slot;
          Alcotest.test_case "validation" `Quick test_bus_validation;
          Alcotest.test_case "round length" `Quick test_bus_round_length;
          Alcotest.test_case "schedule under tdma" `Quick test_schedule_under_tdma ] );
      ( "properties",
        [ q prop_schedules_validate;
          q prop_slack_ordering;
          q prop_length_at_least_critical_path;
          q prop_tdma_respects_slots;
          q prop_more_reexecs_never_shorten ] ) ]
