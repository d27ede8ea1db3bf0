module Rounding = Ftes_util.Rounding

let sum_check p = Array.fold_left ( +. ) 0.0 p

let validate p k =
  if k < 0 then invalid_arg "Bound: negative k";
  Array.iter
    (fun x ->
      if not (Rounding.is_probability x) || x >= 1.0 then
        invalid_arg "Bound: probabilities must lie in [0, 1)")
    p

let pr_exceeds_upper p ~k =
  validate p k;
  let s = sum_check p in
  if s >= 1.0 then 1.0
  else if s = 0.0 then 0.0
  else
    (* Same pessimistic grain rounding as the exact analysis, so the
       bound stays above it even at the rounding resolution. *)
    Rounding.clamp01
      (Rounding.up ((s ** float_of_int (k + 1)) /. (1.0 -. s)))

(* [pr_exceeds_upper] is non-increasing in [k] (S^(k+1) shrinks for
   S < 1 and both degenerate branches are constant), so the predicate
   "bound <= budget" is monotone and the smallest satisfying [k] can be
   bisected instead of scanned. *)
let required_k p ~budget ~kmax =
  if kmax < 0 then invalid_arg "Bound.required_k: negative kmax";
  if pr_exceeds_upper p ~k:kmax > budget then None
  else begin
    let lo = ref 0 and hi = ref kmax in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if pr_exceeds_upper p ~k:mid <= budget then hi := mid else lo := mid + 1
    done;
    Some !lo
  end

(* The slop has two sources.  Grain rounding: [Sfp.node_analysis] and
   [Sfp.pr_exceeds] round at most [2 * (kmax + 2)] intermediate terms
   (pr0, the recovery terms, the final clamp), each pessimistically by
   less than one grain, so two exceedances of nested probability
   vectors computed through the pipeline can disagree by that many
   grains even though the underlying values are ordered.  Float crumbs:
   combining per-node exceedances into the per-iteration failure and
   raising it to the iteration count costs a few ulps, absorbed by the
   absolute 1e-14.  Widening the admissible threshold by the slop makes
   every test built on it one-sided: a node that really meets the goal
   is always within budget. *)
let admissible_budget ~kmax app =
  if kmax < 0 then invalid_arg "Bound.admissible_budget: negative kmax";
  Sfp.max_admissible_failure app
  +. (float_of_int (2 * (kmax + 2)) *. Rounding.grain)
  +. 1e-14

(* [Sfp.pr_exceeds] is exactly non-increasing in [k]: the recovery
   partial sums add non-negative terms (monotone in IEEE arithmetic),
   and the subtraction, multiplication by pr0 and directed rounding are
   all monotone, so the predicate "exceedance <= budget" can be
   bisected just like the closed-form variant. *)
let required_k_exact p ~budget ~kmax =
  if kmax < 0 then invalid_arg "Bound.required_k_exact: negative kmax";
  let analysis = Sfp.node_analysis ~kmax p in
  if Sfp.pr_exceeds analysis ~k:kmax > budget then None
  else begin
    let lo = ref 0 and hi = ref kmax in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Sfp.pr_exceeds analysis ~k:mid <= budget then hi := mid
      else lo := mid + 1
    done;
    Some !lo
  end

(* Soundness is a statement about the underlying probabilities, so it is
   checked against the unrounded exact value: the grain-rounded analysis
   of [Sfp] floors each recovery term and can therefore sit above the
   bound by a few grains on tiny probabilities. *)
let is_sound p ~k =
  let h = Ftes_util.Symmetric.complete_homogeneous p (k + 1) in
  let pr0 = Array.fold_left (fun acc x -> acc *. (1.0 -. x)) 1.0 p in
  let recovered = ref 0.0 in
  for f = 0 to k do
    recovered := !recovered +. (pr0 *. h.(f))
  done;
  let exact_raw = Float.max 0.0 (1.0 -. !recovered) in
  pr_exceeds_upper p ~k >= exact_raw -. 1e-15
