module Workload = Ftes_gen.Workload
module Config = Ftes_core.Config
module Design_strategy = Ftes_core.Design_strategy
module Redundancy_opt = Ftes_core.Redundancy_opt

type cell_key = { ser : float; hpd : float; policy : Config.hardening_policy }

type cell_run = {
  key : cell_key;
  costs : float option array;
  points : (int * Ftes_pareto.Archive.point) list;
  elapsed_s : float;
}

let problems ?params key specs =
  let cell = { Workload.ser = key.ser; hpd = key.hpd } in
  List.map
    (fun spec -> (spec.Workload.index, Workload.problem_of_spec ?params cell spec))
    specs

let run_cell ?pool ~problems key =
  Ftes_obs.Span.with_ ~name:"exp/cell" @@ fun () ->
  let config = Config.with_hardening key.policy Config.default in
  let t0 = Sys.time () in
  let solutions =
    problems
    |> Ftes_par.Pool.map ?pool (fun (index, problem) ->
           let solution = Design_strategy.run ~config problem in
           ( index,
             Option.map
               (fun (s : Design_strategy.solution) ->
                 let r = s.Design_strategy.result in
                 ( r.Redundancy_opt.cost,
                   { Ftes_pareto.Archive.design = r.Redundancy_opt.design;
                     cost = r.Redundancy_opt.cost;
                     slack = r.Redundancy_opt.slack;
                     margin = r.Redundancy_opt.margin } ))
               solution ))
  in
  let costs =
    solutions
    |> List.map (fun (_, v) -> Option.map fst v)
    |> Array.of_list
  in
  let points =
    List.filter_map
      (fun (index, v) -> Option.map (fun (_, p) -> (index, p)) v)
      solutions
  in
  { key; costs; points; elapsed_s = Sys.time () -. t0 }

let percentage hits total =
  if total = 0 then 0.0 else 100.0 *. float_of_int hits /. float_of_int total

let acceptance run ~max_cost =
  let hits =
    Array.fold_left
      (fun acc cost ->
        match cost with
        | Some c when c <= max_cost +. 1e-9 -> acc + 1
        | Some _ | None -> acc)
      0 run.costs
  in
  percentage hits (Array.length run.costs)

let feasibility run =
  let hits =
    Array.fold_left
      (fun acc -> function Some _ -> acc + 1 | None -> acc)
      0 run.costs
  in
  percentage hits (Array.length run.costs)

type suite = {
  specs : Workload.app_spec list;
  pool : Ftes_par.Pool.t option;
  table : (cell_key, cell_run) Hashtbl.t;
}

let create_suite ?pool ?(count = 150) ~seed () =
  { specs = Workload.paper_suite ~count ~seed ();
    pool;
    table = Hashtbl.create 32 }

let suite_specs suite = suite.specs

let cell suite key =
  match Hashtbl.find_opt suite.table key with
  | Some run -> run
  | None ->
      let problems = problems key suite.specs in
      let run = run_cell ?pool:suite.pool ~problems key in
      Hashtbl.replace suite.table key run;
      run

let policies = [ Config.Fixed_max; Config.Fixed_min; Config.Optimize ]
