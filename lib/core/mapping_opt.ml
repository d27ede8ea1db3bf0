module Task_graph = Ftes_model.Task_graph
module Problem = Ftes_model.Problem
module Design = Ftes_model.Design

type objective = Schedule_length | Architecture_cost

let c_iterations = Ftes_obs.Metrics.counter "tabu.iterations"

let c_moves = Ftes_obs.Metrics.counter "tabu.moves"

let c_accepts = Ftes_obs.Metrics.counter "tabu.accepts"

let c_aspirations = Ftes_obs.Metrics.counter "tabu.aspirations"

(* Tabu constants of Section 6.2: iterations a re-mapped process stays
   tabu, non-improving moves before the search stops, and critical-path
   processes considered for re-mapping per iteration.  Only the
   iteration cap is a {!Config} knob. *)
let tabu_tenure = 3

let max_stall = 10

let move_candidates = 5

(* Lexicographic score: the first component is the objective, the second
   breaks ties (and guides the walk through infeasible regions). *)
type score = float * float

let score_lt ((a1, a2) : score) ((b1, b2) : score) =
  a1 < b1 -. 1e-9 || (Float.abs (a1 -. b1) <= 1e-9 && a2 < b2 -. 1e-9)

let design_of problem ~members ~mapping =
  let m = Array.length members in
  Design.make problem ~members ~levels:(Array.make m 1)
    ~reexecs:(Array.make m 0) ~mapping

let evaluate ~cache config objective problem ~members mapping =
  let design = design_of problem ~members ~mapping in
  let solution, best_len =
    Redundancy_opt.probe ~cache ~config problem design
  in
  let score : score =
    match objective with
    | Schedule_length ->
        ( best_len,
          (match solution with Some r -> r.Redundancy_opt.cost | None -> infinity) )
    | Architecture_cost ->
        ( (match solution with Some r -> r.Redundancy_opt.cost | None -> infinity),
          best_len )
  in
  (solution, score)

let initial_mapping problem ~members =
  let graph = Problem.graph problem in
  let n = Task_graph.n graph in
  let m = Array.length members in
  let exec slot proc =
    Problem.wcet problem ~node:members.(slot) ~level:1 ~proc
  in
  (* Rank by bottom level on the average node so heavy chains go first. *)
  let avg_exec proc =
    let total = ref 0.0 in
    for slot = 0 to m - 1 do
      total := !total +. exec slot proc
    done;
    !total /. float_of_int m
  in
  let bl =
    Task_graph.bottom_levels graph ~exec:avg_exec
      ~comm:(fun e -> e.Task_graph.transmission_ms)
  in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> compare (bl.(b), a) (bl.(a), b)) order;
  let mapping = Array.make n 0 in
  let node_avail = Array.make m 0.0 in
  let finish = Array.make n 0.0 in
  let placed = Array.make n false in
  Array.iter
    (fun p ->
      (* Earliest-finish-time placement; unplaced predecessors (possible
         since bottom-level order is not topological) contribute their
         optimistic zero finish, which is fine for a seed mapping. *)
      let best = ref (-1) and best_finish = ref infinity in
      for slot = 0 to m - 1 do
        let arrival =
          List.fold_left
            (fun acc (e : Task_graph.edge) ->
              if not placed.(e.src) then acc
              else begin
                let comm =
                  if mapping.(e.src) = slot then 0.0 else e.transmission_ms
                in
                Float.max acc (finish.(e.src) +. comm)
              end)
            0.0 (Task_graph.preds graph p)
        in
        let f = Float.max node_avail.(slot) arrival +. exec slot p in
        if f < !best_finish then begin
          best_finish := f;
          best := slot
        end
      done;
      mapping.(p) <- !best;
      node_avail.(!best) <- !best_finish;
      finish.(p) <- !best_finish;
      placed.(p) <- true)
    order;
  mapping

let critical_processes problem ~members mapping =
  let graph = Problem.graph problem in
  let exec proc =
    Problem.wcet problem ~node:members.(mapping.(proc)) ~level:1 ~proc
  in
  let comm (e : Task_graph.edge) =
    if mapping.(e.src) = mapping.(e.dst) then 0.0 else e.transmission_ms
  in
  Task_graph.critical_path graph ~exec ~comm

let better objective (a : Redundancy_opt.result) (b : Redundancy_opt.result) =
  match objective with
  | Schedule_length ->
      a.Redundancy_opt.schedule_length < b.Redundancy_opt.schedule_length
  | Architecture_cost -> a.Redundancy_opt.cost < b.Redundancy_opt.cost

let run ~cache ~config ~objective ?initial problem ~members =
  Ftes_obs.Span.with_ ~name:"mapping/run" @@ fun () ->
  let n = Problem.n_processes problem in
  let m = Array.length members in
  let mapping =
    match initial with
    | Some mp -> Array.copy mp
    | None -> initial_mapping problem ~members
  in
  let best_solution = ref None in
  let consider = function
    | None -> ()
    | Some r -> (
        match !best_solution with
        | Some b when not (better objective r b) -> ()
        | Some _ | None -> best_solution := Some r)
  in
  let solution, initial_score =
    evaluate ~cache config objective problem ~members mapping
  in
  consider solution;
  if m <= 1 || n = 0 then !best_solution
  else begin
    let tabu = Array.make n 0 in
    let wait = Array.make n 0 in
    let best_score = ref initial_score in
    let rec iterate iter stall =
      if iter >= config.Config.max_iterations || stall >= max_stall
      then ()
      else begin
        Ftes_obs.Metrics.incr c_iterations;
        let critical = critical_processes problem ~members mapping in
        let candidates =
          List.sort
            (fun a b -> compare (wait.(b), a) (wait.(a), b))
            critical
          |> List.filteri (fun i _ -> i < move_candidates)
        in
        (* Evaluate every re-mapping of every candidate, each on its own
           copy of the mapping; [consider] then folds the solutions in
           move order (first wins on ties). *)
        let move_specs =
          List.concat_map
            (fun p ->
              List.filter_map
                (fun slot ->
                  if slot = mapping.(p) then None else Some (p, slot))
                (List.init m Fun.id))
            candidates
        in
        Ftes_obs.Metrics.add c_moves (List.length move_specs);
        let evaluated =
          List.map
            (fun (p, slot) ->
              let candidate = Array.copy mapping in
              candidate.(p) <- slot;
              let solution, score =
                evaluate ~cache config objective problem ~members
                  candidate
              in
              (p, slot, solution, score))
            move_specs
        in
        List.iter (fun (_, _, solution, _) -> consider solution) evaluated;
        let moves =
          List.map (fun (p, slot, _, score) -> (p, slot, score)) evaluated
        in
        match moves with
        | [] -> ()
        | moves ->
            let best_of =
              List.fold_left
                (fun acc ((_, _, score) as mv) ->
                  match acc with
                  | Some (_, _, bs) when not (score_lt score bs) -> acc
                  | Some _ | None -> Some mv)
                None
            in
            let overall = best_of moves in
            let non_tabu =
              best_of (List.filter (fun (p, _, _) -> tabu.(p) = 0) moves)
            in
            let chosen =
              match overall with
              (* Aspiration: a move beating the best-so-far is taken even
                 if its process is tabu. *)
              | Some (_, _, score) when score_lt score !best_score ->
                  Ftes_obs.Metrics.incr c_aspirations;
                  overall
              | Some _ | None -> (
                  match non_tabu with Some _ -> non_tabu | None -> overall)
            in
            (match chosen with
            | None -> ()
            | Some (p, slot, score) ->
                Ftes_obs.Metrics.incr c_accepts;
                mapping.(p) <- slot;
                tabu.(p) <- tabu_tenure;
                wait.(p) <- 0;
                Array.iteri
                  (fun q t ->
                    if q <> p then begin
                      if t > 0 then tabu.(q) <- t - 1;
                      wait.(q) <- wait.(q) + 1
                    end)
                  tabu;
                if score_lt score !best_score then begin
                  best_score := score;
                  iterate (iter + 1) 0
                end
                else iterate (iter + 1) (stall + 1))
      end
    in
    iterate 0 0;
    !best_solution
  end
