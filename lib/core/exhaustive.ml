module Problem = Ftes_model.Problem
module Design = Ftes_model.Design
module Scheduler = Ftes_sched.Scheduler

let subsets lib =
  let rec go i =
    if i = lib then [ [] ]
    else begin
      let rest = go (i + 1) in
      List.map (fun s -> i :: s) rest @ rest
    end
  in
  List.filter (fun s -> s <> []) (go 0) |> List.map Array.of_list

let search_space problem =
  let n = float_of_int (Problem.n_processes problem) in
  List.fold_left
    (fun acc members ->
      let m = Array.length members in
      let levels =
        Array.fold_left
          (fun acc j -> acc *. float_of_int (Problem.levels problem j))
          1.0 members
      in
      acc +. (levels *. (float_of_int m ** n)))
    0.0
    (subsets (Problem.n_library problem))

let deadline problem =
  problem.Problem.app.Ftes_model.Application.deadline_ms

(* Enumerate every function [0..n) -> [0..m) through an odometer. *)
let iter_mappings ~n ~m f =
  let mapping = Array.make n 0 in
  let rec bump i =
    if i < 0 then false
    else if mapping.(i) + 1 < m then begin
      mapping.(i) <- mapping.(i) + 1;
      true
    end
    else begin
      mapping.(i) <- 0;
      bump (i - 1)
    end
  in
  let rec loop () =
    f mapping;
    if bump (n - 1) then loop ()
  in
  if n = 0 then f mapping else loop ()

let iter_levels problem members f =
  let m = Array.length members in
  let levels = Array.make m 1 in
  let rec bump i =
    if i < 0 then false
    else if levels.(i) < Problem.levels problem members.(i) then begin
      levels.(i) <- levels.(i) + 1;
      true
    end
    else begin
      levels.(i) <- 1;
      bump (i - 1)
    end
  in
  let rec loop () =
    f levels;
    if bump (m - 1) then loop ()
  in
  loop ()

(* The incumbent comparison shared with the exact branch-and-bound:
   strictly cheaper wins, a cost tie (within the float crumb budget)
   breaks towards the strictly shorter schedule. *)
let better ~best (cost, sl) =
  match best with
  | None -> true
  | Some (r : Redundancy_opt.result) ->
      cost < r.Redundancy_opt.cost -. 1e-9
      || (Float.abs (cost -. r.Redundancy_opt.cost) <= 1e-9
          && sl < r.Redundancy_opt.schedule_length -. 1e-9)

let run ?pool ?(limit = 2_000_000) ~config problem =
  let space = search_space problem in
  if space > float_of_int limit then
    invalid_arg
      (Printf.sprintf "Exhaustive.run: %.3g candidates exceed the limit %d"
         space limit);
  let cache = Ftes_par.Sfp_cache.create () in
  let n = Problem.n_processes problem in
  let d = deadline problem in
  (* Fold one architecture subset, starting from [init].  Pruning a
     level vector whose cost cannot beat the incumbent is sound because
     [better (cost, sl)] implies [better (cost, 0.0)] (schedule lengths
     are non-negative). *)
  let search_subset init members =
    let best = ref init in
    let m = Array.length members in
    iter_levels problem members (fun levels ->
        (* Architecture cost is mapping-independent: prune early. *)
        let cost =
          Array.to_list members
          |> List.mapi (fun slot j ->
                 Problem.cost problem ~node:j ~level:levels.(slot))
          |> List.fold_left ( +. ) 0.0
        in
        if better ~best:!best (cost, 0.0) then
          iter_mappings ~n ~m (fun mapping ->
              let design =
                Design.make problem ~members ~levels
                  ~reexecs:(Array.make m 0) ~mapping
              in
              match
                Re_execution_opt.optimize ~cache ~kmax:config.Config.kmax
                  problem design
              with
              | None -> ()
              | Some design ->
                  let sl =
                    Scheduler.schedule_length ~slack:config.Config.slack
                      ~bus:config.Config.bus problem design
                  in
                  if sl <= d +. 1e-9 && better ~best:!best (cost, sl) then begin
                    let verdict = Ftes_sfp.Sfp.evaluate problem design in
                    best :=
                      Some
                        { Redundancy_opt.design;
                          schedule_length = sl;
                          cost;
                          slack = d -. sl;
                          margin =
                            Ftes_sfp.Sfp.log10_margin problem.Problem.app
                              ~per_iteration_failure:
                                verdict.Ftes_sfp.Sfp.per_iteration_failure }
                  end));
    !best
  in
  let all_subsets = subsets (Problem.n_library problem) in
  match pool with
  | Some p
    when Ftes_par.Pool.domains p > 1 && not (Ftes_par.Pool.in_worker ()) ->
      (* Each subset is searched independently (without the cross-subset
         incumbent, so some pruning is lost) and the per-subset winners
         are merged in subset order, reproducing the sequential
         first-wins tie-breaking. *)
      Ftes_par.Pool.map ~pool:p (search_subset None) all_subsets
      |> List.fold_left
           (fun best -> function
             | Some (r : Redundancy_opt.result)
               when better ~best
                      (r.Redundancy_opt.cost, r.Redundancy_opt.schedule_length)
               ->
                 Some r
             | Some _ | None -> best)
           None
  | Some _ | None -> List.fold_left search_subset None all_subsets
