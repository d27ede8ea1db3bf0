(* Exact reference search, for checking the branch-and-bound optimum
   ([Ftes_bnb.Bnb.solve]) and the heuristics' optimality gap on small
   instances.

   Enumerates every candidate design: all architectures (non-empty
   subsets of the node library), all hardening vectors and all mappings
   of the processes onto the selected nodes.  Re-execution counts
   follow the heuristics' policy (the greedy SFP assignment of
   [Ftes_core.Re_execution_opt]), so the comparison isolates the
   architecture / hardening / mapping decisions.  It shares no
   enumeration code with the branch-and-bound: architectures are
   bitmasks, and level vectors and mappings are decoded from a
   mixed-radix counter, so a bug in either walk shows up as a
   disagreement. *)

module Problem = Ftes_model.Problem
module Design = Ftes_model.Design
module Scheduler = Ftes_sched.Scheduler
module Sfp = Ftes_sfp.Sfp
module Config = Ftes_core.Config
module Redundancy_opt = Ftes_core.Redundancy_opt

(* Architectures in the order ties are broken in: with node 0 as the
   most significant bit, descending masks visit {0,1,..} before {0}
   before {1,..}. *)
let architectures lib =
  List.init ((1 lsl lib) - 1) (fun i ->
      let mask = (1 lsl lib) - 1 - i in
      List.filter (fun j -> mask land (1 lsl (lib - 1 - j)) <> 0)
        (List.init lib Fun.id)
      |> Array.of_list)

let search_space problem =
  let n = Problem.n_processes problem in
  List.fold_left
    (fun acc members ->
      let levels =
        Array.fold_left
          (fun acc j -> acc *. float_of_int (Problem.levels problem j))
          1.0 members
      in
      acc +. (levels *. (float_of_int (Array.length members) ** float_of_int n)))
    0.0
    (architectures (Problem.n_library problem))

(* Every vector [v] with [0 <= v.(i) < radix.(i)], last digit fastest:
   index [k] is written in the mixed radix. *)
let iter_vectors radix f =
  let total = Array.fold_left ( * ) 1 radix in
  let len = Array.length radix in
  for k = 0 to total - 1 do
    let v = Array.make len 0 in
    let rest = ref k in
    for i = len - 1 downto 0 do
      v.(i) <- !rest mod radix.(i);
      rest := !rest / radix.(i)
    done;
    f v
  done

(* Strictly cheaper beyond the 1e-9 crumb budget, or as cheap and
   strictly shorter. *)
let improves ~best ~cost ~sl =
  match best with
  | None -> true
  | Some (b : Redundancy_opt.result) ->
      if cost < b.Redundancy_opt.cost -. 1e-9 then true
      else if cost > b.Redundancy_opt.cost +. 1e-9 then false
      else sl < b.Redundancy_opt.schedule_length -. 1e-9

(* The cost-minimal feasible design, or [None] when no candidate is both
   schedulable and reliable; ties on cost go to the shorter schedule,
   then to the first candidate enumerated.  Raises [Invalid_argument]
   when [search_space] exceeds [limit]. *)
let run ?(limit = 2_000_000) ~config problem =
  let space = search_space problem in
  if space > float_of_int limit then
    invalid_arg
      (Printf.sprintf "Exhaustive.run: %.3g candidates exceed the limit %d"
         space limit);
  let cache = Ftes_par.Sfp_cache.create () in
  let n = Problem.n_processes problem in
  let d = problem.Problem.app.Ftes_model.Application.deadline_ms in
  let best = ref None in
  List.iter
    (fun members ->
      let m = Array.length members in
      iter_vectors
        (Array.map (fun j -> Problem.levels problem j) members)
        (fun digits ->
          let levels = Array.map (fun l -> l + 1) digits in
          let cost = ref 0.0 in
          Array.iteri
            (fun slot j ->
              cost := !cost +. Problem.cost problem ~node:j ~level:levels.(slot))
            members;
          let cost = !cost in
          (* Schedule lengths are non-negative, so a vector that cannot
             improve at length 0 cannot improve at all. *)
          if improves ~best:!best ~cost ~sl:0.0 then
            iter_vectors (Array.make n m) (fun mapping ->
                let design =
                  Design.make problem ~members ~levels
                    ~reexecs:(Array.make m 0) ~mapping
                in
                match
                  Ftes_core.Re_execution_opt.optimize ~cache
                    ~kmax:config.Config.kmax problem design
                with
                | None -> ()
                | Some design ->
                    let sl =
                      Scheduler.schedule_length ~slack:config.Config.slack
                        ~bus:config.Config.bus problem design
                    in
                    if sl <= d +. 1e-9 && improves ~best:!best ~cost ~sl then begin
                      let verdict = Sfp.evaluate problem design in
                      best :=
                        Some
                          { Redundancy_opt.design;
                            schedule_length = sl;
                            cost;
                            slack = d -. sl;
                            margin =
                              Sfp.log10_margin problem.Problem.app
                                ~per_iteration_failure:
                                  verdict.Sfp.per_iteration_failure }
                    end)))
    (architectures (Problem.n_library problem));
  !best
