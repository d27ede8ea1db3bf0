module Problem = Ftes_model.Problem
module Design = Ftes_model.Design
module Application = Ftes_model.Application
module Scheduler = Ftes_sched.Scheduler
module Sfp = Ftes_sfp.Sfp
module Redundancy_opt = Ftes_core.Redundancy_opt
module Re_execution_opt = Ftes_core.Re_execution_opt
module Design_strategy = Ftes_core.Design_strategy
module Config = Ftes_core.Config
module Preflight = Ftes_analyze.Preflight
module Cert = Ftes_analyze.Bnb_certificate
module Symmetric = Ftes_util.Symmetric

exception Budget_exhausted of int

(* Every non-empty subset of [0 .. lib-1] as a strictly increasing
   array, in canonical order: the order ties between equally good
   architectures are broken in. *)
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

(* Odometer over the hardening-level vectors (1-based, bounded by each
   member's available h-versions) of one architecture; the callback
   receives the same mutable array every time. *)
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

(* The incumbent comparison: strictly cheaper (beyond the 1e-9 crumb
   budget) wins, a cost tie breaks towards the strictly shorter
   schedule. *)
let better ~best (cost, sl) =
  match best with
  | None -> true
  | Some (r : Redundancy_opt.result) ->
      cost < r.Redundancy_opt.cost -. 1e-9
      || (Float.abs (cost -. r.Redundancy_opt.cost) <= 1e-9
          && sl < r.Redundancy_opt.schedule_length -. 1e-9)

type outcome = {
  best : Redundancy_opt.result option;
  certificate : Cert.t;
}

let deadline problem = problem.Problem.app.Application.deadline_ms

(* Min-heap on (lower bound, push order): the frontier of the
   best-first walk.  The push order breaks lower-bound ties, so the pop
   sequence — and with it every premise the certificate records — is
   deterministic. *)
module Frontier = struct
  type entry = { lb : float; seq : int; prefix : int array; first_open : int }

  type t = { mutable data : entry array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let lt a b = a.lb < b.lb || (a.lb = b.lb && a.seq < b.seq)

  let swap t i j =
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(j);
    t.data.(j) <- tmp

  let push t e =
    if t.len = Array.length t.data then begin
      let data = Array.make (max 16 (2 * t.len)) e in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end;
    t.data.(t.len) <- e;
    t.len <- t.len + 1;
    let i = ref (t.len - 1) in
    while !i > 0 && lt t.data.(!i) t.data.((!i - 1) / 2) do
      swap t !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop t =
    if t.len = 0 then None
    else begin
      let top = t.data.(0) in
      t.len <- t.len - 1;
      if t.len > 0 then begin
        t.data.(0) <- t.data.(t.len);
        let i = ref 0 in
        let sinking = ref true in
        while !sinking do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let s = ref !i in
          if l < t.len && lt t.data.(l) t.data.(!s) then s := l;
          if r < t.len && lt t.data.(r) t.data.(!s) then s := r;
          if !s = !i then sinking := false
          else begin
            swap t !i !s;
            i := !s
          end
        done
      end;
      Some top
    end
end

type arch_stats = {
  winner : Redundancy_opt.result option;
  arch_evaluated : int;
  arch_pruned_levels : int;
  arch_pruned_mappings : int;
}

let pow_int base e =
  let r = ref 1 in
  for _ = 1 to e do
    r := !r * base
  done;
  !r

(* The level x mapping search of one closed architecture.  The
   candidate stream is exhaustive enumeration's: every level vector in
   [iter_levels] order, every mapping in lexicographic order (last
   process fastest), each re-executed greedily and accepted by
   [better] under the deadline.  On top of it, three one-sided cuts
   skip only candidates that enumeration would reject anyway: hardening
   vectors costlier than the global incumbent (soundness needs
   candidate costs to be either equal or separated by more than the
   1e-9 crumb budget, which every modeled instance satisfies and the
   differential suite checks), hardening vectors under which some
   process is admissible on no slot, and — digit by digit — mapping
   prefixes whose slot is already reliability-dead for the process or
   whose accumulated raw WCET load provably overruns what acceptance
   would need. *)
let search_arch ~cache ~config ~(preflight : Preflight.t) ~prune_cost ~tick
    problem members =
  let n = Problem.n_processes problem in
  let m = Array.length members in
  let d = deadline problem in
  let kneed = preflight.Preflight.kneed in
  let best = ref None in
  let evaluated = ref 0 and pruned_levels = ref 0 and pruned_mappings = ref 0 in
  let mapping = Array.make n 0 in
  let load = Array.make m 0.0 in
  let wcets = Array.make_matrix n m 0.0 in
  let admissible = Array.make_matrix n m false in
  let zero_reexecs = Array.make m 0 in
  iter_levels problem members (fun levels ->
      let cost = ref 0.0 in
      Array.iteri
        (fun slot j ->
          cost := !cost +. Problem.cost problem ~node:j ~level:levels.(slot))
        members;
      let cost = !cost in
      if
        (not (better ~best:!best (cost, 0.0)))
        || cost > prune_cost +. 1e-9
      then incr pruned_levels
      else begin
        let dead = ref false in
        for p = 0 to n - 1 do
          let any = ref false in
          for s = 0 to m - 1 do
            wcets.(p).(s) <-
              Problem.wcet problem ~node:members.(s) ~level:levels.(s) ~proc:p;
            let a = kneed.(p).(members.(s)).(levels.(s) - 1) >= 0 in
            admissible.(p).(s) <- a;
            if a then any := true
          done;
          if not !any then dead := true
        done;
        if !dead then incr pruned_levels
        else begin
          (* What a completion's schedule length must stay under to be
             accepted: the deadline, tightened to the incumbent's length
             when this vector can only tie its cost. *)
          let length_threshold () =
            match !best with
            | Some (r : Redundancy_opt.result)
              when Float.abs (cost -. r.Redundancy_opt.cost) <= 1e-9 ->
                Float.min (d +. 1e-9)
                  (r.Redundancy_opt.schedule_length -. 1e-9)
            | _ -> d +. 1e-9
          in
          let rec assign p =
            if p = n then begin
              tick ();
              incr evaluated;
              let design =
                Design.make problem ~members ~levels ~reexecs:zero_reexecs
                  ~mapping
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
                  if sl <= d +. 1e-9 && better ~best:!best (cost, sl)
                  then begin
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
                  end
            end
            else
              for s = 0 to m - 1 do
                if not admissible.(p).(s) then
                  (* Any completion re-executes [p] on a node that
                     cannot meet the goal even hosting [p] alone. *)
                  pruned_mappings := !pruned_mappings + pow_int m (n - 1 - p)
                else begin
                  let w = wcets.(p).(s) in
                  load.(s) <- load.(s) +. w;
                  if load.(s) -. Preflight.prove_eps_ms > length_threshold ()
                  then
                    (* The slot's processes run serially, so any
                       completion is at least this long. *)
                    pruned_mappings := !pruned_mappings + pow_int m (n - 1 - p)
                  else begin
                    mapping.(p) <- s;
                    assign (p + 1)
                  end;
                  load.(s) <- load.(s) -. w
                end
              done
          in
          assign 0
        end
      end);
  { winner = !best;
    arch_evaluated = !evaluated;
    arch_pruned_levels = !pruned_levels;
    arch_pruned_mappings = !pruned_mappings }

let solve ?(limit = max_int) ~config problem =
  Ftes_obs.Span.with_ ~name:"bnb/solve" (fun () ->
      let lib = Problem.n_library problem in
      let preflight =
        Preflight.run ~kmax:config.Config.kmax
          ~reexec:(Preflight.reexec_of_slack config.Config.slack)
          problem
      in
      let cache = Ftes_par.Sfp_cache.create () in
      let heuristic_cost =
        match Design_strategy.run ~config problem with
        | Some s -> s.Design_strategy.result.Redundancy_opt.cost
        | None -> infinity
      in
      (* The incumbent tightens as architectures close. *)
      let prune_cost = ref heuristic_cost in
      let canonical = Preflight.canonical_nodes problem in
      let class_total = Array.make lib 0 in
      Array.iter (fun c -> class_total.(c) <- class_total.(c) + 1) canonical;
      let represented members =
        let chosen = Array.make lib 0 in
        Array.iter
          (fun j -> chosen.(canonical.(j)) <- chosen.(canonical.(j)) + 1)
          members;
        let r = ref 1.0 in
        Array.iteri
          (fun c total ->
            if chosen.(c) > 0 then
              r := !r *. float_of_int (Symmetric.binomial total chosen.(c)))
          class_total;
        !r
      in
      let evaluated_total = ref 0 in
      let tick () =
        incr evaluated_total;
        if !evaluated_total > limit then raise (Budget_exhausted !evaluated_total)
      in
      let prunes = ref [] in
      let frontier = Frontier.create () in
      let seq = ref 0 in
      let push prefix first_open =
        incr seq;
        let lb =
          Preflight.completion_cost_lower_bound preflight problem ~prefix
            ~first_open
        in
        Frontier.push frontier { Frontier.lb; seq = !seq; prefix; first_open }
      in
      push [||] 0;
      let expanded = ref 0 and closed = ref 0 in
      let pruned_cost_n = ref 0
      and pruned_arch = ref 0
      and pruned_symmetry = ref 0 in
      let represented_total = ref 0.0 in
      let winners : (int list, Redundancy_opt.result option) Hashtbl.t =
        Hashtbl.create 64
      in
      let evaluated = ref 0
      and pruned_levels = ref 0
      and pruned_mappings = ref 0 in
      let close members =
        incr closed;
        represented_total := !represented_total +. represented members;
        let s =
          search_arch ~cache ~config ~preflight ~prune_cost:!prune_cost ~tick
            problem members
        in
        (match s.winner with
        | Some r when r.Redundancy_opt.cost < !prune_cost ->
            prune_cost := r.Redundancy_opt.cost
        | Some _ | None -> ());
        evaluated := !evaluated + s.arch_evaluated;
        pruned_levels := !pruned_levels + s.arch_pruned_levels;
        pruned_mappings := !pruned_mappings + s.arch_pruned_mappings;
        Hashtbl.replace winners (Array.to_list members) s.winner
      in
      let rec walk () =
        match Frontier.pop frontier with
        | None -> ()
        | Some { Frontier.lb; prefix; first_open; _ } ->
            (if lb > !prune_cost +. 1e-9 then begin
               incr pruned_cost_n;
               prunes :=
                 Cert.Cost_bound
                   { prefix; lower_bound = lb; incumbent_cost = !prune_cost }
                 :: !prunes
             end
             else begin
               let full =
                 Array.append prefix
                   (Array.init (lib - first_open) (fun i -> first_open + i))
               in
               let record_arch subtree verdict =
                 incr pruned_arch;
                 prunes :=
                   Cert.Arch_infeasible { prefix; subtree; verdict } :: !prunes
               in
               match
                 Preflight.architecture_check preflight problem ~members:full
               with
               | `Unreliable p -> record_arch true (Cert.Unreliable p)
               | `Deadline lb_ms -> record_arch true (Cert.Deadline lb_ms)
               | `Feasible ->
                   incr expanded;
                   if Array.length prefix > 0 then
                     if first_open >= lib then close prefix
                     else begin
                       match
                         Preflight.architecture_check preflight problem
                           ~members:prefix
                       with
                       | `Feasible -> close prefix
                       | `Unreliable p -> record_arch false (Cert.Unreliable p)
                       | `Deadline lb_ms ->
                           record_arch false (Cert.Deadline lb_ms)
                     end;
                   for j = first_open to lib - 1 do
                     (* Extending by [j] while an identical smaller node
                        is unchosen only yields architectures equivalent
                        to canonical ones reached elsewhere. *)
                     let c = canonical.(j) in
                     let twin = ref (-1) in
                     let j' = ref c in
                     while !twin < 0 && !j' < j do
                       if
                         canonical.(!j') = c
                         && not (Array.exists (fun x -> x = !j') prefix)
                       then twin := !j';
                       incr j'
                     done;
                     if !twin >= 0 then begin
                       incr pruned_symmetry;
                       prunes :=
                         Cert.Symmetry
                           { prefix; skipped = j; canonical = !twin }
                         :: !prunes
                     end
                     else push (Array.append prefix [| j |]) (j + 1)
                   done
             end);
            walk ()
      in
      walk ();
      let best =
        List.fold_left
          (fun best members ->
            match Hashtbl.find_opt winners (Array.to_list members) with
            | Some (Some (r : Redundancy_opt.result))
              when better ~best
                     (r.Redundancy_opt.cost, r.Redundancy_opt.schedule_length)
              ->
                Some r
            | Some _ | None -> best)
          None
          (subsets lib)
      in
      let incumbent =
        match best with
        | None -> None
        | Some r ->
            let dsg = r.Redundancy_opt.design in
            Some
              { Cert.members = Array.copy dsg.Design.members;
                levels = Array.copy dsg.Design.levels;
                reexecs = Array.copy dsg.Design.reexecs;
                mapping = Array.copy dsg.Design.mapping;
                cost = r.Redundancy_opt.cost;
                schedule_length_ms = r.Redundancy_opt.schedule_length }
      in
      let counters =
        { Cert.expanded = !expanded;
          closed = !closed;
          evaluated = !evaluated;
          pruned_cost = !pruned_cost_n;
          pruned_arch = !pruned_arch;
          pruned_symmetry = !pruned_symmetry;
          pruned_levels = !pruned_levels;
          pruned_mappings = !pruned_mappings }
      in
      let certificate =
        Cert.of_run ~problem ~kmax:config.Config.kmax
          ~search_space:(search_space problem)
          ~represented_subsets:!represented_total ~heuristic_cost ~incumbent
          ~counters ~prunes:(List.rev !prunes)
      in
      { best; certificate })
