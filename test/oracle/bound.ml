(* Linear-scan reference for [Ftes_sfp.Bound.required_k], which
   bisects the same monotone predicate. *)

let required_k_scan p ~budget ~kmax =
  if kmax < 0 then invalid_arg "Bound.required_k: negative kmax";
  let rec search k =
    if k > kmax then None
    else if Ftes_sfp.Bound.pr_exceeds_upper p ~k <= budget then Some k
    else search (k + 1)
  in
  search 0

(* Reference for the reliability-only cost bound
   [Ftes_analyze.Preflight.t.sfp_cost_lower_bound], which folds it out
   of the pre-flight [kneed] table: here every singleton's
   admissibility is decided afresh by [Bound.required_k_exact].  Max
   over processes of the min cost over admissible (node, level) pairs;
   [infinity] when some process has none. *)
let cost_lower_bound ?(kmax = Ftes_sfp.Sfp.default_kmax)
    (problem : Ftes_model.Problem.t) =
  let module P = Ftes_model.Problem in
  let budget = Ftes_sfp.Bound.admissible_budget ~kmax problem.P.app in
  let bound = ref 0.0 in
  for proc = 0 to P.n_processes problem - 1 do
    let cheapest = ref infinity in
    for node = 0 to P.n_library problem - 1 do
      for level = 1 to P.levels problem node do
        let pf = P.pfail problem ~node ~level ~proc in
        if Ftes_sfp.Bound.required_k_exact [| pf |] ~budget ~kmax <> None then
          cheapest := Float.min !cheapest (P.cost problem ~node ~level)
      done
    done;
    bound := Float.max !bound !cheapest
  done;
  !bound
