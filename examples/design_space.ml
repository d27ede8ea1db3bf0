(* Design-space walk: how hardening levels, re-execution counts, cost
   and worst-case schedule length interact on a synthetic application —
   the Section 5 trade-off, measured instead of illustrated.

   For one generated application mapped on two nodes, sweep all
   hardening-level pairs, derive the re-execution counts from the SFP
   analysis, and tabulate cost vs schedule length.  The Pareto-optimal
   rows are the designs the OPT heuristic navigates between.

   Run with:  dune exec examples/design_space.exe *)

module Workload = Ftes_gen.Workload
module Design = Ftes_model.Design
module Problem = Ftes_model.Problem
module Scheduler = Ftes_sched.Scheduler
module Text_table = Ftes_util.Text_table

let () =
  let spec = Workload.generate_spec ~seed:2024 ~index:3 ~n_processes:20 () in
  let problem =
    Workload.problem_of_spec { Workload.ser = 1e-10; hpd = 0.5 } spec
  in
  let deadline = problem.Problem.app.Ftes_model.Application.deadline_ms in
  Format.printf "%a@.@." Problem.pp problem;

  let members = [| 0; 1 |] in
  let mapping = Ftes_core.Mapping_opt.initial_mapping problem ~members in
  let levels_of j = Problem.levels problem members.(j) in
  let table =
    Text_table.create
      ~headers:[ "h(N1)"; "h(N2)"; "k(N1)"; "k(N2)"; "cost"; "SL (ms)"; "feasible" ]
  in
  Text_table.set_aligns table
    Text_table.[ Right; Right; Right; Right; Right; Right; Left ];
  let best = ref None in
  for h1 = 1 to levels_of 0 do
    for h2 = 1 to levels_of 1 do
      let base =
        Design.make problem ~members ~levels:[| h1; h2 |] ~reexecs:[| 0; 0 |]
          ~mapping
      in
      match Ftes_core.Re_execution_opt.optimize problem base with
      | None ->
          Text_table.add_row table
            [ string_of_int h1; string_of_int h2; "-"; "-"; "-"; "-";
              "goal unreachable" ]
      | Some design ->
          let sl = Scheduler.schedule_length problem design in
          let cost = Design.cost problem design in
          let feasible = sl <= deadline +. 1e-9 in
          if feasible then begin
            match !best with
            | Some (c, _, _) when c <= cost -> ()
            | Some _ | None -> best := Some (cost, (h1, h2), design)
          end;
          Text_table.add_row table
            [ string_of_int h1; string_of_int h2;
              string_of_int design.Design.reexecs.(0);
              string_of_int design.Design.reexecs.(1);
              Printf.sprintf "%.0f" cost;
              Printf.sprintf "%.1f" sl;
              (if feasible then "yes" else "no (misses deadline)") ]
    done
  done;
  Printf.printf "Hardening-level sweep on two nodes (deadline %.1f ms):\n" deadline;
  Text_table.print table;
  (match !best with
  | None -> print_endline "no feasible hardening vector for this mapping"
  | Some (cost, (h1, h2), _) ->
      Printf.printf
        "cheapest feasible hardening for this fixed mapping: (h%d, h%d) at \
         cost %.0f\n"
        h1 h2 cost);

  (* The full strategy also optimizes the mapping and the architecture. *)
  match
    Ftes_core.Design_strategy.run ~config:Ftes_core.Config.default problem
  with
  | None -> print_endline "DesignStrategy: infeasible"
  | Some s ->
      Printf.printf
        "DesignStrategy (architecture + mapping + redundancy): cost %.0f, \
         SL %.1f ms\n"
        s.result.Ftes_core.Redundancy_opt.cost
        s.result.Ftes_core.Redundancy_opt.schedule_length
