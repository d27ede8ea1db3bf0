module Task_graph = Ftes_model.Task_graph
module Problem = Ftes_model.Problem
module Design = Ftes_model.Design

type entry = {
  proc : int;
  slot : int;
  start : float;
  finish : float;
  commit : float;
}

type message = {
  edge : Task_graph.edge;
  bus_start : float;
  bus_finish : float;
}

type t = {
  entries : entry array;
  messages : message list;
  node_finish : float array;
  node_worst : float array;
  length : float;
}

let length t = t.length

let entry t ~proc = t.entries.(proc)

let utilization t ~slot =
  let busy =
    Array.fold_left
      (fun acc e -> if e.slot = slot then acc +. (e.finish -. e.start) else acc)
      0.0 t.entries
  in
  if t.node_finish.(slot) <= 0.0 then 0.0 else busy /. t.node_finish.(slot)

let eps = Ftes_util.Tolerance.time_eps_ms

let validate problem design t =
  let graph = Problem.graph problem in
  let n = Task_graph.n graph in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if Array.length t.entries <> n then fail "entry count mismatch"
  else begin
    let check_entry acc e =
      match acc with
      | Error _ -> acc
      | Ok () ->
          if e.slot <> design.Design.mapping.(e.proc) then
            fail "process %d scheduled on a slot it is not mapped to" e.proc
          else begin
            let expected = Design.wcet problem design ~proc:e.proc in
            (* Checkpoint saves may inflate the execution; it can never
               be shorter than the WCET table says. *)
            if e.finish -. e.start < expected -. eps then
              fail "process %d shorter than its WCET" e.proc
            else if e.start < -.eps then fail "process %d starts before 0" e.proc
            else if e.commit < e.finish -. eps then
              fail "process %d commits before it finishes" e.proc
            else Ok ()
          end
    in
    let structural = Array.fold_left check_entry (Ok ()) t.entries in
    match structural with
    | Error _ as err -> err
    | Ok () ->
        (* Precedence: same-node successors wait for the nominal finish,
           cross-node successors for the message that leaves after the
           worst-case commit. *)
        let find_message e =
          List.find_opt
            (fun m ->
              m.edge.Task_graph.src = e.Task_graph.src
              && m.edge.Task_graph.dst = e.Task_graph.dst)
            t.messages
        in
        let check_edge acc (e : Task_graph.edge) =
          match acc with
          | Error _ -> acc
          | Ok () ->
              let src = t.entries.(e.src) and dst = t.entries.(e.dst) in
              if src.slot = dst.slot then begin
                if dst.start < src.finish -. eps then
                  fail "edge %d->%d violated on the same node" e.src e.dst
                else Ok ()
              end
              else begin
                match find_message e with
                | None -> fail "edge %d->%d has no bus message" e.src e.dst
                | Some m ->
                    if m.bus_start < src.commit -. eps then
                      fail "message %d->%d leaves before the worst-case commit"
                        e.src e.dst
                    else if
                      (* TDMA fragments may stretch the occupancy over
                         slot gaps, but can never compress it. *)
                      m.bus_finish -. m.bus_start < e.transmission_ms -. eps
                    then fail "message %d->%d shorter than its WCTT" e.src e.dst
                    else if dst.start < m.bus_finish -. eps then
                      fail "edge %d->%d violated across nodes" e.src e.dst
                    else Ok ()
              end
        in
        let precedence =
          List.fold_left check_edge (Ok ()) (Task_graph.edges graph)
        in
        let overlaps intervals =
          let sorted = List.sort compare intervals in
          let rec scan = function
            | (s1, f1, a) :: ((s2, _, b) :: _ as rest) ->
                if s2 < f1 -. eps then Some (a, b, s1, s2) else scan rest
            | [ _ ] | [] -> None
          in
          scan sorted
        in
        let check_node acc slot =
          match acc with
          | Error _ -> acc
          | Ok () ->
              let intervals =
                Array.to_list t.entries
                |> List.filter_map (fun e ->
                       if e.slot = slot then Some (e.start, e.finish, e.proc)
                       else None)
              in
              (match overlaps intervals with
              | Some (a, b, _, _) ->
                  fail "processes %d and %d overlap on slot %d" a b slot
              | None -> Ok ())
        in
        let node_overlap =
          List.fold_left check_node precedence
            (List.init (Design.n_members design) Fun.id)
        in
        (match node_overlap with
        | Error _ as err -> err
        | Ok () -> (
            let bus_intervals =
              List.map
                (fun m -> (m.bus_start, m.bus_finish, m.edge.Task_graph.src))
                t.messages
            in
            match overlaps bus_intervals with
            | Some (a, b, _, _) ->
                fail "messages from %d and %d overlap on the bus" a b
            | None ->
                (* Worst-case node completions must dominate the nominal
                   ones and determine the schedule length. *)
                let rec check_nodes slot =
                  if slot = Design.n_members design then Ok ()
                  else if t.node_worst.(slot) < t.node_finish.(slot) -. eps
                  then fail "node %d worst end precedes its nominal end" slot
                  else check_nodes (slot + 1)
                in
                (match check_nodes 0 with
                | Error _ as err -> err
                | Ok () ->
                    let max_worst =
                      Array.fold_left Float.max 0.0 t.node_worst
                    in
                    if Float.abs (t.length -. max_worst) > eps then
                      fail "schedule length is not the worst node completion"
                    else Ok ())))
  end

let to_gantt problem design t =
  let app = problem.Problem.app in
  let name i = Ftes_model.Application.process_name app i in
  let buf = Buffer.create 512 in
  let width = 68 in
  let horizon = Float.max t.length 1e-9 in
  let col time =
    int_of_float (time /. horizon *. float_of_int (width - 1) +. 0.5)
  in
  let render_row label cells =
    let row = Bytes.make width '.' in
    List.iter
      (fun (s, f, text) ->
        let c0 = col s and c1 = max (col s) (col f - 1) in
        for c = c0 to min c1 (width - 1) do
          Bytes.set row c '='
        done;
        String.iteri
          (fun i ch ->
            let c = c0 + i in
            if c <= c1 && c < width then Bytes.set row c ch)
          text)
      cells;
    Buffer.add_string buf (Printf.sprintf "  %-8s |%s|\n" label (Bytes.to_string row))
  in
  Buffer.add_string buf
    (Printf.sprintf "  worst-case schedule length SL = %.2f ms (deadline %.2f ms)\n"
       t.length app.Ftes_model.Application.deadline_ms);
  Array.iteri
    (fun slot j ->
      let nt = Problem.node problem j in
      let cells =
        Array.to_list t.entries
        |> List.filter_map (fun e ->
               if e.slot = slot then Some (e.start, e.finish, name e.proc)
               else None)
      in
      let label =
        Printf.sprintf "%s h=%d" nt.Ftes_model.Platform.node_name
          design.Design.levels.(slot)
      in
      render_row label cells;
      let slack_cells =
        if t.node_worst.(slot) > t.node_finish.(slot) +. eps then
          [ (t.node_finish.(slot), t.node_worst.(slot), "slack") ]
        else []
      in
      if slack_cells <> [] then render_row "" slack_cells)
    design.Design.members;
  if t.messages <> [] then begin
    let cells =
      List.map
        (fun m ->
          ( m.bus_start,
            m.bus_finish,
            Printf.sprintf "m%d-%d" (m.edge.Task_graph.src + 1)
              (m.edge.Task_graph.dst + 1) ))
        t.messages
    in
    render_row "bus" cells
  end;
  Buffer.contents buf
