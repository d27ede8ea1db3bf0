module Config = Ftes_core.Config
module Design_strategy = Ftes_core.Design_strategy
module Redundancy_opt = Ftes_core.Redundancy_opt
module Text_table = Ftes_util.Text_table
module Ascii_chart = Ftes_util.Ascii_chart

type artifact = {
  id : string;
  title : string;
  x_labels : string list;
  ours : (string * float list) list;
  paper : (string * float list) list;
  note : string;
}

let hpd_values = [ 0.05; 0.25; 0.50; 1.00 ]

let ser_values = [ 1e-12; 1e-11; 1e-10 ]

let hpd_label hpd = Printf.sprintf "HPD=%g%%" (100.0 *. hpd)

let ser_label ser = Printf.sprintf "SER=%g" ser

let series suite ~cells policy =
  List.map
    (fun (ser, hpd, max_cost) ->
      let run =
        Synthetic.cell suite { Synthetic.ser; hpd; policy }
      in
      Synthetic.acceptance run ~max_cost)
    cells

let collect suite ~cells =
  List.map
    (fun policy -> (Config.policy_name policy, series suite ~cells policy))
    Synthetic.policies

(* Fig. 6b printed table: (ArC, HPD) -> (MAX, MIN, OPT). *)
let paper_fig6b =
  [ ((15, 0.05), (35., 76., 92.));
    ((20, 0.05), (71., 76., 94.));
    ((25, 0.05), (92., 82., 98.));
    ((15, 0.25), (33., 76., 86.));
    ((20, 0.25), (63., 76., 86.));
    ((25, 0.25), (84., 82., 92.));
    ((15, 0.50), (27., 76., 80.));
    ((20, 0.50), (49., 76., 84.));
    ((25, 0.50), (74., 82., 90.));
    ((15, 1.00), (23., 76., 78.));
    ((20, 1.00), (41., 76., 84.));
    ((25, 1.00), (65., 82., 90.)) ]

let paper_row_6b ~arc =
  let get hpd =
    List.assoc (arc, hpd) paper_fig6b
  in
  let maxs = List.map (fun h -> let a, _, _ = get h in a) hpd_values in
  let mins = List.map (fun h -> let _, b, _ = get h in b) hpd_values in
  let opts = List.map (fun h -> let _, _, c = get h in c) hpd_values in
  [ ("MAX", maxs); ("MIN", mins); ("OPT", opts) ]

(* Fig. 6c / 6d reference series are read off the printed bar charts
   (the paper tabulates only Fig. 6b); treat them as approximate. *)
let paper_fig6c =
  [ ("MAX", [ 71.; 71.; 71. ]);
    ("MIN", [ 92.; 76.; 10. ]);
    ("OPT", [ 92.; 94.; 82. ]) ]

let paper_fig6d =
  [ ("MAX", [ 41.; 41.; 41. ]);
    ("MIN", [ 92.; 76.; 10. ]);
    ("OPT", [ 88.; 84.; 70. ]) ]

let fig6a suite =
  let cells = List.map (fun hpd -> (1e-11, hpd, 20.0)) hpd_values in
  { id = "fig6a";
    title =
      "Fig. 6a: % accepted architectures vs hardening performance \
       degradation (SER = 1e-11, ArC = 20)";
    x_labels = List.map hpd_label hpd_values;
    ours = collect suite ~cells;
    paper = paper_row_6b ~arc:20;
    note = "paper values from the Fig. 6b table, ArC = 20 rows" }

let fig6b suite =
  List.map
    (fun arc ->
      let cells = List.map (fun hpd -> (1e-11, hpd, float_of_int arc)) hpd_values in
      { id = Printf.sprintf "fig6b-arc%d" arc;
        title =
          Printf.sprintf
            "Fig. 6b: %% accepted architectures (SER = 1e-11, ArC = %d)" arc;
        x_labels = List.map hpd_label hpd_values;
        ours = collect suite ~cells;
        paper = paper_row_6b ~arc;
        note = "paper values from the printed Fig. 6b table" })
    [ 15; 20; 25 ]

let fig6c suite =
  let cells = List.map (fun ser -> (ser, 0.05, 20.0)) ser_values in
  { id = "fig6c";
    title =
      "Fig. 6c: % accepted architectures vs soft error rate (HPD = 5%, \
       ArC = 20)";
    x_labels = List.map ser_label ser_values;
    ours = collect suite ~cells;
    paper = paper_fig6c;
    note = "paper values approximate (read off the printed bar chart)" }

let fig6d suite =
  let cells = List.map (fun ser -> (ser, 1.00, 20.0)) ser_values in
  { id = "fig6d";
    title =
      "Fig. 6d: % accepted architectures vs soft error rate (HPD = 100%, \
       ArC = 20)";
    x_labels = List.map ser_label ser_values;
    ours = collect suite ~cells;
    paper = paper_fig6d;
    note = "paper values approximate (read off the printed bar chart)" }

let render artifact =
  let table =
    Text_table.create
      ~headers:("strategy" :: List.concat_map (fun x -> [ x; "(paper)" ]) artifact.x_labels)
  in
  Text_table.set_aligns table
    (Text_table.Left :: List.concat_map (fun _ -> Text_table.[ Right; Right ]) artifact.x_labels);
  List.iter
    (fun (name, values) ->
      let paper_values = List.assoc_opt name artifact.paper in
      let cells =
        List.concat
          (List.mapi
             (fun i v ->
               let p =
                 match paper_values with
                 | Some ps -> Printf.sprintf "%.0f" (List.nth ps i)
                 | None -> "-"
               in
               [ Printf.sprintf "%.1f" v; p ])
             values)
      in
      Text_table.add_row table (name :: cells))
    artifact.ours;
  let chart =
    Ascii_chart.bar_chart ~title:"" ~x_labels:artifact.x_labels
      (List.map
         (fun (label, values) -> { Ascii_chart.label; values })
         artifact.ours)
  in
  Printf.sprintf "%s\n%s(note: %s)\n\n%s" artifact.title
    (Text_table.render table) artifact.note chart

let to_csv artifact =
  let header = "strategy" :: "kind" :: artifact.x_labels in
  let ours_rows =
    List.map
      (fun (name, values) ->
        name :: "measured" :: List.map (Printf.sprintf "%.2f") values)
      artifact.ours
  in
  let paper_rows =
    List.map
      (fun (name, values) ->
        name :: "paper" :: List.map (Printf.sprintf "%.2f") values)
      artifact.paper
  in
  header :: (ours_rows @ paper_rows)

type cc_result = {
  rows : (string * bool * float option * float option) list;
  opt_saving_vs_max : float option;
}

let cc_study () =
  let problem = Ftes_cc.Cruise_control.problem () in
  let run policy =
    let config = Config.with_hardening policy Config.default in
    Design_strategy.run ~config problem
  in
  let describe policy =
    let name = Config.policy_name policy in
    match run policy with
    | None -> (name, false, None, None)
    | Some s ->
        ( name,
          true,
          Some s.Design_strategy.result.Redundancy_opt.cost,
          Some s.Design_strategy.result.Redundancy_opt.schedule_length )
  in
  let rows = List.map describe Synthetic.policies in
  let cost_of name =
    List.find_map
      (fun (n, _, cost, _) -> if n = name then cost else None)
      rows
  in
  let opt_saving_vs_max =
    match (cost_of "MAX", cost_of "OPT") with
    | Some cmax, Some copt when cmax > 0.0 -> Some ((cmax -. copt) /. cmax)
    | _ -> None
  in
  { rows; opt_saving_vs_max }

let render_cc result =
  let table =
    Text_table.create
      ~headers:[ "strategy"; "schedulable & reliable"; "cost"; "SL (ms)"; "paper" ]
  in
  let paper_row = function
    | "MIN" -> "unschedulable"
    | "MAX" -> "schedulable"
    | "OPT" -> "schedulable, 66% cheaper than MAX"
    | _ -> ""
  in
  List.iter
    (fun (name, feasible, cost, sl) ->
      Text_table.add_row table
        [ name;
          (if feasible then "yes" else "no");
          (match cost with Some c -> Printf.sprintf "%.0f" c | None -> "-");
          (match sl with Some s -> Printf.sprintf "%.1f" s | None -> "-");
          paper_row name ])
    result.rows;
  let saving =
    match result.opt_saving_vs_max with
    | Some s ->
        Printf.sprintf
          "measured OPT saving vs MAX: %.1f%% (paper reports 66%%)\n"
          (100.0 *. s)
    | None -> "OPT saving vs MAX not available\n"
  in
  "Cruise controller case study (32 processes on ETM/ABS/TCM, D = 300 ms,\n\
   rho = 1 - 1.2e-5/h, SER = 2e-12, HPD = 25%)\n"
  ^ Text_table.render table ^ saving
