module Json = Ftes_util.Json
open Json

let schema_version = 1

let witness_to_json (w : Preflight.witness) =
  match w with
  | Preflight.Task_wcet { proc; min_wcet_ms } ->
      Object
        [ ("kind", String "task-wcet");
          ("proc", int proc);
          ("min_wcet_ms", Number min_wcet_ms) ]
  | Preflight.Task_slack { proc; min_length_ms } ->
      Object
        [ ("kind", String "task-slack");
          ("proc", int proc);
          ("min_length_ms", Number min_length_ms) ]
  | Preflight.Task_unreliable { proc } ->
      Object
        [ ("kind", String "task-unreliable");
          ("proc", int proc) ]
  | Preflight.Critical_path { length_ms; path } ->
      Object
        [ ("kind", String "critical-path");
          ("length_ms", Number length_ms);
          ("path", ints (Array.of_list path)) ]
  | Preflight.Total_work { work_ms; capacity_ms } ->
      Object
        [ ("kind", String "total-work");
          ("work_ms", Number work_ms);
          ("capacity_ms", Number capacity_ms) ]

let summary_to_json (s : Preflight.summary) =
  Object
    [ ("name", String s.Preflight.name);
      ("n_processes", int s.Preflight.n_processes);
      ("n_library", int s.Preflight.n_library);
      ("deadline_ms", Number s.Preflight.deadline_ms);
      ("period_ms", Number s.Preflight.period_ms);
      ("gamma", Number s.Preflight.gamma);
      ("mu_ms", Number s.Preflight.mu_ms) ]

let to_json (c : Preflight.t) =
  let task proc =
    Object
      [ ("min_wcet_ms", Number c.Preflight.min_wcets.(proc));
        ("min_length_ms", number_or_null c.Preflight.task_min_length.(proc));
        ("cheapest_cost", number_or_null c.Preflight.task_cheapest.(proc));
        ( "kneed",
          List (Array.to_list (Array.map ints c.Preflight.kneed.(proc))) ) ]
  in
  Object
    [ Ftes_util.Versioned_json.field schema_version;
      ("problem", summary_to_json c.Preflight.summary);
      ( "premises",
        Object
          [ ("kmax", int c.Preflight.kmax);
            ("reexec", Bool c.Preflight.reexec);
            ("threshold", Number c.Preflight.threshold);
            ("budget", Number c.Preflight.budget) ] );
      ( "bounds",
        Object
          [ ("critical_path_ms", Number c.Preflight.critical_path_ms);
            ( "critical_path",
              ints (Array.of_list c.Preflight.critical_path) );
            ("total_work_ms", Number c.Preflight.total_work_ms);
            ("capacity_ms", Number c.Preflight.capacity_ms);
            ("cost_lower_bound", number_or_null c.Preflight.cost_lower_bound);
            ( "sfp_cost_lower_bound",
              number_or_null c.Preflight.sfp_cost_lower_bound ) ] );
      ( "tasks",
        List (List.init (Array.length c.Preflight.min_wcets) task) );
      ("feasible", Bool c.Preflight.feasible);
      ( "witnesses",
        List (List.map witness_to_json c.Preflight.witnesses) ) ]

let witness_of_json json =
  let* kind = field "kind" to_string_value json in
  let proc () = field "proc" to_int json in
  match kind with
  | "task-wcet" ->
      let* proc = proc () in
      let* min_wcet_ms = field "min_wcet_ms" to_float json in
      Ok (Preflight.Task_wcet { proc; min_wcet_ms })
  | "task-slack" ->
      let* proc = proc () in
      let* min_length_ms = field "min_length_ms" to_float json in
      Ok (Preflight.Task_slack { proc; min_length_ms })
  | "task-unreliable" ->
      let* proc = proc () in
      Ok (Preflight.Task_unreliable { proc })
  | "critical-path" ->
      let* length_ms = field "length_ms" to_float json in
      let* path = field "path" (list_of to_int) json in
      Ok (Preflight.Critical_path { length_ms; path })
  | "total-work" ->
      let* work_ms = field "work_ms" to_float json in
      let* capacity_ms = field "capacity_ms" to_float json in
      Ok (Preflight.Total_work { work_ms; capacity_ms })
  | other -> Error (Printf.sprintf "witness: unknown kind %S" other)

let summary_of_json json =
  let* name = field "name" to_string_value json in
  let* n_processes = field "n_processes" to_int json in
  let* n_library = field "n_library" to_int json in
  let* deadline_ms = field "deadline_ms" to_float json in
  let* period_ms = field "period_ms" to_float json in
  let* gamma = field "gamma" to_float json in
  let* mu_ms = field "mu_ms" to_float json in
  Ok
    { Preflight.name;
      n_processes;
      n_library;
      deadline_ms;
      period_ms;
      gamma;
      mu_ms }

let task_of_json json =
  let* min_wcet_ms = field "min_wcet_ms" to_float json in
  let* min_length_ms = field "min_length_ms" to_float_or_inf json in
  let* cheapest = field "cheapest_cost" to_float_or_inf json in
  let* kneed = field "kneed" (list_of int_array) json in
  Ok (min_wcet_ms, min_length_ms, cheapest, Array.of_list kneed)

let of_json ?on_warning json =
  Ftes_util.Versioned_json.decode ~what:"certificate" ~accept_v0:false
    ?on_warning ~current:schema_version
    (fun json ->
      let* summary = field "problem" summary_of_json json in
      let* premises = member "premises" json in
      let* kmax = field "kmax" to_int premises in
      let* reexec = field "reexec" to_bool premises in
      let* threshold = field "threshold" to_float premises in
      let* budget = field "budget" to_float premises in
      let* bounds = member "bounds" json in
      let* critical_path_ms = field "critical_path_ms" to_float bounds in
      let* critical_path = field "critical_path" (list_of to_int) bounds in
      let* total_work_ms = field "total_work_ms" to_float bounds in
      let* capacity_ms = field "capacity_ms" to_float bounds in
      let* cost_lower_bound =
        field "cost_lower_bound" to_float_or_inf bounds
      in
      let* sfp_cost_lower_bound =
        field "sfp_cost_lower_bound" to_float_or_inf bounds
      in
      let* tasks = field "tasks" (list_of task_of_json) json in
      let tasks = Array.of_list tasks in
      let* feasible = field "feasible" to_bool json in
      let* witnesses = field "witnesses" (list_of witness_of_json) json in
      if Array.length tasks <> summary.Preflight.n_processes then
        Error
          (Printf.sprintf "tasks: %d entries for %d processes"
             (Array.length tasks) summary.Preflight.n_processes)
      else
        Ok
          { Preflight.summary;
            kmax;
            reexec;
            threshold;
            budget;
            min_wcets = Array.map (fun (w, _, _, _) -> w) tasks;
            kneed = Array.map (fun (_, _, _, k) -> k) tasks;
            task_min_length = Array.map (fun (_, l, _, _) -> l) tasks;
            task_cheapest = Array.map (fun (_, _, c, _) -> c) tasks;
            critical_path_ms;
            critical_path;
            total_work_ms;
            capacity_ms;
            cost_lower_bound;
            sfp_cost_lower_bound;
            feasible;
            witnesses })
    json

let to_string c = Json.to_string (to_json c)

let of_string ?on_warning s =
  Result.bind (Json.of_string s) (of_json ?on_warning)

let save path c = Ftes_util.Versioned_json.save path (to_json c)

let load ?on_warning path = Ftes_util.Versioned_json.load (of_json ?on_warning) path
