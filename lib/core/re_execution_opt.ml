module Design = Ftes_model.Design
module Application = Ftes_model.Application
module Problem = Ftes_model.Problem
module Sfp = Ftes_sfp.Sfp
module Incremental = Ftes_sfp.Incremental

let c_grow_skips = Ftes_obs.Metrics.counter "kernel.grow_skips"

let c_grow_exp_elided = Ftes_obs.Metrics.counter "kernel.grow_exp_elided"

(* Greedy ascent: always spend the next re-execution where it buys the
   most system reliability.  Three accelerations, each preserving every
   float a from-scratch ascent produces (see DESIGN.md §10):

   - candidates are evaluated over the cached per-node exceedance
     tables with the shared fold prefix of formula (5) reused across
     the member sweep, instead of rebuilding formula (4) per candidate;
   - a candidate whose node is saturated ([Incremental.saturated]) is
     skipped: its bumped failure equals the current one bit-for-bit, so
     it can never win the strict acceptance test, and when every
     candidate ties a from-scratch ascent returns [None] just the same;
   - formula (6)'s exponentiation runs only when a candidate's
     per-iteration failure is strictly below the best one seen this
     sweep.  Reliability is monotone non-increasing in the failure
     probability (each composed operation is monotone under rounding),
     so a candidate at or above the running minimum evaluates to at
     most the best reliability and a from-scratch ascent's [br >= r]
     keep-incumbent test would keep it anyway. *)
let for_mapping ?cache ?(kmax = Sfp.default_kmax) problem design =
  let members = Design.n_members design in
  let vectors_of member =
    match cache with
    | Some cache ->
        Ftes_par.Sfp_cache.node_vectors cache problem design ~member ~kmax
    | None ->
        Incremental.node_vectors
          (Sfp.node_analysis ~kmax (Design.pfail_vector problem design ~member))
  in
  let inc = Incremental.make (Array.init members vectors_of) in
  let app = problem.Problem.app in
  let iterations = Application.iterations_per_hour app in
  let goal = Application.reliability_goal app in
  let k = Array.make members 0 in
  let prefix = Array.make (members + 1) 1.0 in
  (* [Sfp.reliability] inlined with the iteration ceiling hoisted (the
     ceiling of a constant is the same float every call), keeping the
     per-candidate exp free of cross-module boxing. *)
  let iterations_ceil = Float.ceil iterations in
  let reliability_of_failure pf =
    if pf >= 1.0 then 0.0 else exp (iterations_ceil *. Float.log1p (-.pf))
  in
  let rec grow current =
    if current >= goal then Some (Array.copy k)
    else begin
      Incremental.prefix_into inc ~k prefix;
      (* Sweep state as plain refs (unboxed locals): [best_j < 0] means
         no candidate yet; acceptance [r > best_r] is exactly the
         negation of a [br >= r] keep-incumbent test.  [best_pf] is
         the smallest candidate failure whose reliability is already
         folded in; candidates at or above it cannot displace it. *)
      let best_j = ref (-1) in
      let best_r = ref neg_infinity in
      let best_pf = ref infinity in
      for j = 0 to members - 1 do
        if k.(j) < kmax then
          if Incremental.saturated inc ~member:j ~k:k.(j) then
            Ftes_obs.Metrics.incr c_grow_skips
          else begin
            let pf = Incremental.candidate_failure inc ~k ~prefix ~j in
            if pf >= !best_pf && !best_j >= 0 then
              Ftes_obs.Metrics.incr c_grow_exp_elided
            else begin
              let r =
                if pf >= 1.0 then 0.0
                else exp (iterations_ceil *. Float.log1p (-.pf))
              in
              if !best_j < 0 || r > !best_r then begin
                best_j := j;
                best_r := r
              end;
              if pf < !best_pf then best_pf := pf
            end
          end
      done;
      if !best_j < 0 then None
      else if !best_r > current then begin
        k.(!best_j) <- k.(!best_j) + 1;
        grow !best_r
      end
      else None
    end
  in
  grow (reliability_of_failure (Incremental.system_failure inc ~k))

let optimize ?cache ?kmax problem design =
  Option.map (Design.with_reexecs design)
    (for_mapping ?cache ?kmax problem design)
