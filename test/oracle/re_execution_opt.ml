(* From-scratch reference for [Ftes_core.Re_execution_opt.for_mapping]:
   every candidate [k + e_j] rebuilds formula (5) from the per-node
   tables and formula (6) from its failure, with no prefix reuse or
   exp elision. *)

module Design = Ftes_model.Design
module Application = Ftes_model.Application
module Problem = Ftes_model.Problem
module Sfp = Ftes_sfp.Sfp

let for_mapping_reference ?cache ?(kmax = Sfp.default_kmax) problem design =
  let members = Design.n_members design in
  let analyse member =
    match cache with
    | Some cache ->
        Ftes_par.Sfp_cache.node_analysis cache problem design ~member ~kmax
    | None ->
        Sfp.node_analysis ~kmax (Design.pfail_vector problem design ~member)
  in
  let analyses = Array.init members analyse in
  let app = problem.Problem.app in
  let iterations = Application.iterations_per_hour app in
  let goal = Application.reliability_goal app in
  let k = Array.make members 0 in
  let reliability_of k =
    let per_iteration_failure = Sfp.system_failure_per_iteration analyses ~k in
    Sfp.reliability ~per_iteration_failure ~iterations_per_hour:iterations
  in
  (* Greedy ascent: always spend the next re-execution where it buys the
     most system reliability. *)
  let rec grow current =
    if current >= goal then Some (Array.copy k)
    else begin
      let best = ref None in
      for j = 0 to members - 1 do
        if k.(j) < kmax then begin
          k.(j) <- k.(j) + 1;
          let r = reliability_of k in
          k.(j) <- k.(j) - 1;
          match !best with
          | Some (_, br) when br >= r -> ()
          | Some _ | None -> best := Some (j, r)
        end
      done;
      match !best with
      | None -> None
      | Some (j, r) when r > current ->
          k.(j) <- k.(j) + 1;
          grow r
      | Some _ ->
          (* No increment improves reliability any further: the goal is
             unreachable at these hardening levels. *)
          None
    end
  in
  grow (reliability_of k)
