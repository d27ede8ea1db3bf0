(* Equivalence suite for the evaluation kernels (the heap scheduler,
   the incremental SFP ascent and the pre-flight reliability-only cost
   bound): each must be bit-identical to its reference in the
   test-only [Ftes_oracle], and the length-only schedule must allocate
   the same per call whatever the graph size. *)

module Oracle = Ftes_oracle
module Prng = Ftes_util.Prng
module Task_graph = Ftes_model.Task_graph
module Design = Ftes_model.Design
module Problem = Ftes_model.Problem
module Sfp = Ftes_sfp.Sfp
module Incremental = Ftes_sfp.Incremental
module Scheduler = Ftes_sched.Scheduler
module Schedule = Ftes_sched.Schedule
module Bus = Ftes_sched.Bus
module Re_execution_opt = Ftes_core.Re_execution_opt

(* Bit-level float equality: the kernels promise the identical float,
   not a nearby one. *)
let feq a b = Int64.bits_of_float a = Int64.bits_of_float b

(* --- Scheduler: heap pick = reference rescan --- *)

let entry_eq (a : Schedule.entry) (b : Schedule.entry) =
  a.proc = b.proc && a.slot = b.slot && feq a.start b.start
  && feq a.finish b.finish && feq a.commit b.commit

let message_eq (a : Schedule.message) (b : Schedule.message) =
  a.edge = b.edge && feq a.bus_start b.bus_start
  && feq a.bus_finish b.bus_finish

let farray_eq a b =
  Array.length a = Array.length b && Array.for_all2 feq a b

let schedule_eq (a : Schedule.t) (b : Schedule.t) =
  Array.length a.entries = Array.length b.entries
  && Array.for_all2 entry_eq a.entries b.entries
  && List.length a.messages = List.length b.messages
  && List.for_all2 message_eq a.messages b.messages
  && farray_eq a.node_finish b.node_finish
  && farray_eq a.node_worst b.node_worst
  && feq a.length b.length

let random_design = Helpers.random_design

let bus_policies = Helpers.bus_policies

let slack_policies = Helpers.slack_policies

let prop_heap_schedule_matches_reference =
  QCheck.Test.make ~count:30
    ~name:"heap schedule = reference rescan (all slack x bus policies)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let prng = Prng.create (seed + 17) in
      let problem =
        Helpers.synthetic_problem ~seed:(seed mod 997)
          ~n:(8 + (seed mod 13))
          ()
      in
      let design = random_design prng problem in
      let n = Task_graph.n (Problem.graph problem) in
      List.for_all
        (fun slack ->
          List.for_all
            (fun bus ->
              let fast = Scheduler.schedule ~slack ~bus problem design in
              let reference =
                Oracle.Scheduler.schedule_reference ~slack ~bus problem design
              in
              schedule_eq fast reference)
            bus_policies)
        (slack_policies prng n))

(* [schedule_length] runs the placement pass without recording (no
   entry/message records, inline FCFS booking), so it gets its own
   equivalence property: it must keep producing the reference's
   makespan bit for bit. *)
let prop_schedule_length_matches_reference =
  QCheck.Test.make ~count:30
    ~name:"length-only schedule = reference length (all slack x bus policies)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let prng = Prng.create (seed + 71) in
      let problem =
        Helpers.synthetic_problem ~seed:(seed mod 911)
          ~n:(8 + (seed mod 13))
          ()
      in
      let design = random_design prng problem in
      let n = Task_graph.n (Problem.graph problem) in
      List.for_all
        (fun slack ->
          List.for_all
            (fun bus ->
              let fast = Scheduler.schedule_length ~slack ~bus problem design in
              let reference =
                Schedule.length
                  (Oracle.Scheduler.schedule_reference ~slack ~bus problem
                     design)
              in
              feq fast reference)
            bus_policies)
        (slack_policies prng n))

(* --- SFP: exceedance tables and folds are bit-identical --- *)

let random_probs prng =
  let n = 1 + Prng.int prng 6 in
  (* Mix magnitudes so some vectors saturate early and some never do. *)
  Array.init n (fun _ ->
      let scale = 10.0 ** float_of_int (- Prng.int prng 9) in
      Prng.float prng 0.4 *. scale)

let prop_exceed_vector_bit_identical =
  QCheck.Test.make ~count:200
    ~name:"Incremental.exceed_vector.(k) = Sfp.pr_exceeds ~k (bitwise)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let prng = Prng.create (seed + 3) in
      let a = Sfp.node_analysis ~kmax:12 (random_probs prng) in
      let v = Incremental.exceed_vector a in
      let ok = ref true in
      for k = 0 to 12 do
        if not (feq v.(k) (Sfp.pr_exceeds a ~k)) then ok := false
      done;
      !ok)

let prop_system_failure_bit_identical =
  QCheck.Test.make ~count:200
    ~name:"Incremental.system_failure = Sfp.system_failure_per_iteration"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let prng = Prng.create (seed + 11) in
      let members = 1 + Prng.int prng 5 in
      let analyses =
        Array.init members (fun _ -> Sfp.node_analysis ~kmax:8 (random_probs prng))
      in
      let inc = Incremental.make (Array.map Incremental.exceed_vector analyses) in
      let k = Array.init members (fun _ -> Prng.int prng 9) in
      let fast = Incremental.system_failure inc ~k in
      let reference = Sfp.system_failure_per_iteration analyses ~k in
      feq fast reference)

let prop_candidate_failure_bit_identical =
  QCheck.Test.make ~count:200
    ~name:"Incremental.candidate_failure = full fold on the bumped vector"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let prng = Prng.create (seed + 23) in
      let members = 1 + Prng.int prng 5 in
      let analyses =
        Array.init members (fun _ -> Sfp.node_analysis ~kmax:8 (random_probs prng))
      in
      let inc = Incremental.make (Array.map Incremental.exceed_vector analyses) in
      let k = Array.init members (fun _ -> Prng.int prng 8) in
      let prefix = Array.make (members + 1) 0.0 in
      Incremental.prefix_into inc ~k prefix;
      let ok = ref true in
      for j = 0 to members - 1 do
        let bumped = Array.copy k in
        bumped.(j) <- bumped.(j) + 1;
        let fast = Incremental.candidate_failure inc ~k ~prefix ~j in
        let reference = Sfp.system_failure_per_iteration analyses ~k:bumped in
        if not (feq fast reference) then ok := false
      done;
      !ok)

(* --- Re-execution ascent: incremental = reference --- *)

let prop_for_mapping_matches_reference =
  QCheck.Test.make ~count:25
    ~name:"for_mapping (incremental, cached and uncached) = reference"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let prng = Prng.create (seed + 41) in
      let problem =
        Helpers.synthetic_problem ~seed:(seed mod 991) ~ser:1e-10
          ~n:(6 + (seed mod 9))
          ()
      in
      let design = random_design prng problem in
      let reference =
        Oracle.Re_execution_opt.for_mapping_reference problem design
      in
      let fast = Re_execution_opt.for_mapping problem design in
      let cached =
        Re_execution_opt.for_mapping
          ~cache:(Ftes_par.Sfp_cache.create ())
          problem design
      in
      fast = reference && cached = reference)

(* --- Pre-flight: the reliability-only bound folded out of kneed =
   the per-singleton reference --- *)

let prop_sfp_cost_lower_bound_matches_reference =
  QCheck.Test.make ~count:100
    ~name:"Preflight sfp_cost_lower_bound = cost_lower_bound reference"
    QCheck.(quad (int_bound 1_000_000) (int_bound 20) (int_bound 8) bool)
    (fun (seed, kmax, cell, reexec) ->
      (* One of the section 7 SER x HPD cells. *)
      let ser = List.nth [ 1e-12; 1e-11; 1e-10 ] (cell / 3) in
      let hpd = List.nth [ 0.05; 0.25; 0.5 ] (cell mod 3) in
      let problem = Helpers.synthetic_problem ~seed ~n:10 ~ser ~hpd () in
      let pf = Ftes_analyze.Preflight.run ~kmax ~reexec problem in
      feq pf.Ftes_analyze.Preflight.sfp_cost_lower_bound
        (Oracle.Bound.cost_lower_bound ~kmax problem))

(* The length-only pass takes every working array from the domain's
   scratch arena, so once warm its per-call minor allocation is a
   constant: the same at 80 processes as at 20 on the same library.  A
   float boxed per edge or process would show up as a size-dependent
   count here.  Each size is measured twice: re-scheduling one design,
   and cycling over 40 designs with distinct mappings, so no per-design
   state carried between calls can hide a size-dependent allocation. *)
let test_length_only_allocation_is_size_independent () =
  let words_per_call ~n ~distinct =
    let problem = Helpers.synthetic_problem ~seed:5 ~n () in
    let designs =
      if distinct = 1 then
        [| Helpers.design_on_all_nodes ~levels:1 ~k:1 problem |]
      else begin
        let prng = Prng.create n in
        let m = Problem.n_library problem in
        Array.init distinct (fun _ ->
            Design.make problem ~members:(Array.init m Fun.id)
              ~levels:(Array.make m 1) ~reexecs:(Array.make m 1)
              ~mapping:(Array.init n (fun _ -> Prng.int prng m)))
      end
    in
    let mappings =
      Array.to_list (Array.map (fun d -> d.Design.mapping) designs)
    in
    Alcotest.(check int)
      (Printf.sprintf "distinct mappings at n = %d" n)
      distinct
      (List.length (List.sort_uniq compare mappings));
    let length i =
      Scheduler.schedule_length ~bus:Bus.Fcfs problem
        designs.(i mod distinct)
    in
    for i = 1 to 10 do
      ignore (length i)
    done;
    let calls = 1000 in
    let before = Gc.minor_words () in
    for i = 1 to calls do
      ignore (length i)
    done;
    let after = Gc.minor_words () in
    Float.to_int (Float.round ((after -. before) /. float_of_int calls))
  in
  List.iter
    (fun distinct ->
      let small = words_per_call ~n:20 ~distinct in
      let large = words_per_call ~n:80 ~distinct in
      Alcotest.(check int)
        (Printf.sprintf
           "minor words per call at n = 80 over %d design(s) (n = 20: %d)"
           distinct small)
        small large)
    [ 1; 40 ]

let () =
  Alcotest.run "kernels"
    [ ( "scheduler",
        [ QCheck_alcotest.to_alcotest prop_heap_schedule_matches_reference;
          QCheck_alcotest.to_alcotest prop_schedule_length_matches_reference;
          Alcotest.test_case "length-only allocation is size-independent"
            `Quick test_length_only_allocation_is_size_independent ] );
      ( "sfp",
        [ QCheck_alcotest.to_alcotest prop_exceed_vector_bit_identical;
          QCheck_alcotest.to_alcotest prop_system_failure_bit_identical;
          QCheck_alcotest.to_alcotest prop_candidate_failure_bit_identical ] );
      ( "re-execution",
        [ QCheck_alcotest.to_alcotest prop_for_mapping_matches_reference ] );
      ( "bound",
        [ QCheck_alcotest.to_alcotest
            prop_sfp_cost_lower_bound_matches_reference ] ) ]
