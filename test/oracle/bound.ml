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
