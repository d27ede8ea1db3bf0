(* Walk through the paper's motivational examples (Sections 3 and 5):
   Fig. 2 (re-execution vs hardening on one process), Fig. 3 (hardware
   recovery vs software recovery), Fig. 4 (the five architecture
   alternatives for the Fig. 1 application) and the Appendix A.2
   computation.

   Run with:  dune exec examples/motivational.exe *)

module Design = Ftes_model.Design
module Scheduler = Ftes_sched.Scheduler
module Sfp = Ftes_sfp.Sfp
module Text_table = Ftes_util.Text_table

let () =
  print_endline "=== Fig. 2 / Fig. 3: hardware recovery vs software recovery ===";
  let problem = Ftes_cc.Fig_examples.fig3_problem () in
  let table =
    Text_table.create
      ~headers:[ "h-version"; "WCET"; "p(fail)"; "cost"; "k needed"; "worst case (ms)"; "meets D=360?" ]
  in
  List.iter
    (fun level ->
      let v =
        Ftes_model.Platform.version (Ftes_model.Problem.node problem 0) ~level
      in
      let design =
        Design.make problem ~members:[| 0 |] ~levels:[| level |]
          ~reexecs:[| 0 |] ~mapping:[| 0 |]
      in
      match Ftes_core.Re_execution_opt.for_mapping problem design with
      | None -> Text_table.add_row table [ Printf.sprintf "h=%d" level; "-" ]
      | Some k ->
          let design = Design.with_reexecs design k in
          let sl = Scheduler.schedule_length problem design in
          Text_table.add_row table
            [ Printf.sprintf "h=%d" level;
              Printf.sprintf "%.0f" v.Ftes_model.Platform.wcet_ms.(0);
              Printf.sprintf "%g" v.Ftes_model.Platform.pfail.(0);
              Printf.sprintf "%.0f" v.Ftes_model.Platform.cost;
              string_of_int k.(0);
              Printf.sprintf "%.0f" sl;
              (if sl <= 360.0 then "yes" else "no") ])
    [ 1; 2; 3 ];
  print_endline (Text_table.render table);
  print_endline
    "The paper's Fig. 3: 6 re-executions at h=1 miss the deadline; h=2 needs\n\
     only 2 and fits; h=3 costs twice as much for the same worst case, so\n\
     the h=2 version should be chosen.\n";

  print_endline "=== Fig. 4: architecture alternatives for the Fig. 1 application ===";
  let problem = Ftes_cc.Fig_examples.fig1_problem () in
  let alternatives =
    [ ("4a: N1(h2){P1,P2} + N2(h2){P3,P4}, k=(1,1)", Ftes_cc.Fig_examples.fig4a problem);
      ("4b: N1(h2) mono, k=2", Ftes_cc.Fig_examples.fig4b problem);
      ("4c: N2(h2) mono, k=2", Ftes_cc.Fig_examples.fig4c problem);
      ("4d: N1(h3) mono, k=0", Ftes_cc.Fig_examples.fig4d problem);
      ("4e: N2(h3) mono, k=0", Ftes_cc.Fig_examples.fig4e problem) ]
  in
  let table =
    Text_table.create
      ~headers:[ "alternative"; "cost"; "SL (ms)"; "schedulable"; "reliable" ]
  in
  List.iter
    (fun (name, design) ->
      let sl = Scheduler.schedule_length problem design in
      let v = Sfp.evaluate problem design in
      Text_table.add_row table
        [ name;
          Printf.sprintf "%.0f" (Design.cost problem design);
          Printf.sprintf "%.0f" sl;
          (if sl <= 360.0 then "yes" else "no");
          (if v.Sfp.meets_goal then "yes" else "no") ])
    alternatives;
  print_endline (Text_table.render table);

  print_endline "Schedule of alternative 4a (the paper's choice):";
  let design = Ftes_cc.Fig_examples.fig4a problem in
  print_string
    (Ftes_sched.Schedule.to_gantt problem design
       (Scheduler.schedule problem design));
  print_newline ();

  print_endline "=== Appendix A.2: the SFP computation for alternative 4a ===";
  let p_n1 = [| 1.2e-5; 1.3e-5 |] and p_n2 = [| 1.2e-5; 1.3e-5 |] in
  let a1 = Sfp.node_analysis p_n1 and a2 = Sfp.node_analysis p_n2 in
  Printf.printf "Pr(0; N1^2) = %.11f   (paper: 0.99997500015)\n" (Sfp.pr_zero a1);
  Printf.printf "Pr(f>0; N1^2) = %.12f (paper: 0.000024999844)\n"
    (Sfp.pr_exceeds a1 ~k:0);
  Printf.printf "Pr(f>1; N1^2) = %.2e     (paper: 4.8e-10)\n" (Sfp.pr_exceeds a1 ~k:1);
  let union =
    Sfp.system_failure_per_iteration [| a1; a2 |] ~k:[| 1; 1 |]
  in
  Printf.printf "Pr(union, k=1,1) = %.2e  (paper: 9.6e-10)\n" union;
  let reliability =
    Sfp.reliability ~per_iteration_failure:union ~iterations_per_hour:10_000.0
  in
  Printf.printf "system reliability = %.11f (paper: 0.99999040004) -> %s\n"
    reliability
    (if reliability >= 1.0 -. 1e-5 then "goal met" else "goal violated");

  print_endline
    "\n=== What our optimizer finds for the Fig. 1 application ===";
  (match Ftes_core.Design_strategy.run ~config:Ftes_core.Config.default problem with
  | None -> print_endline "no feasible design"
  | Some s ->
      let d = s.result.Ftes_core.Redundancy_opt.design in
      Format.printf "%a@." (fun ppf () -> Design.pp ppf problem d) ();
      Printf.printf
        "cost %.0f beats the paper's illustrated best (72) by exploiting a\n\
         cheaper hardening/re-execution mix; SL = %.1f ms.\n"
        s.result.Ftes_core.Redundancy_opt.cost
        s.result.Ftes_core.Redundancy_opt.schedule_length);

  print_endline
    "\n=== How optimistic is the shared-slack bound on alternative 4a? ===";
  let design = Ftes_cc.Fig_examples.fig4a problem in
  let r = Ftes_faultsim.Scenarios.worst_case problem design in
  Printf.printf
    "replaying all %d admissible fault scenarios:\n\
    \  shared bound (the paper's SL)  %.0f ms\n\
    \  exact worst case               %.0f ms  (P2 and P4 each fail once)\n\
    \  sound conservative bound       %.0f ms\n\
     The shared model absorbs each node's faults locally and does not\n\
     charge the cross-node cascade; see DESIGN.md and the fault-injection\n\
     experiments for how rarely that matters in practice.\n"
    r.Ftes_faultsim.Scenarios.scenarios
    r.Ftes_faultsim.Scenarios.shared_bound_ms
    r.Ftes_faultsim.Scenarios.exact_worst_ms
    r.Ftes_faultsim.Scenarios.conservative_bound_ms
