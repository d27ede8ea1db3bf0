module Rounding = Ftes_util.Rounding

(* Per-node exceedance table: v.(k) accumulates the recovery terms in
   the same order as repeated [Sfp.pr_exceeds] calls (Pr(0), then
   Pr(1) .. Pr(k) each rounded down), so every entry is bit-identical
   to the from-scratch formula (4). *)
let exceed_vector analysis =
  let kmax = Sfp.kmax analysis in
  let v = Array.make (kmax + 1) 0.0 in
  let recovered = ref (Sfp.pr_zero analysis) in
  v.(0) <- Rounding.clamp01 (Rounding.up (1.0 -. !recovered));
  for f = 1 to kmax do
    recovered := !recovered +. Sfp.pr_faults analysis ~f;
    v.(f) <- Rounding.clamp01 (Rounding.up (1.0 -. !recovered))
  done;
  v

(* Smallest k with v.(k) = 0. (the set is upward closed: the recovered
   sum is non-decreasing in k, so once the rounded tail clamps to zero
   it stays there), or kmax + 1 when the tail never vanishes.  The
   closed-form [Bound.required_k] seeds the bisection: the analytic cap
   usually lands within one probe of the exact saturation point, and a
   wrong seed only narrows the bracket, never the answer. *)
let saturation_of analysis v =
  let kmax = Sfp.kmax analysis in
  if v.(kmax) <> 0.0 then kmax + 1
  else begin
    let lo = ref 0 and hi = ref kmax in
    (match
       Bound.required_k analysis.Sfp.probs ~budget:Rounding.grain ~kmax
     with
    | Some seed -> if v.(seed) = 0.0 then hi := seed else lo := seed + 1
    | None -> ());
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v.(mid) = 0.0 then hi := mid else lo := mid + 1
    done;
    !lo
  end

type node_vectors = { exceed : float array; sat : int }

let node_vectors analysis =
  let exceed = exceed_vector analysis in
  { exceed; sat = saturation_of analysis exceed }

type t = { exceed : float array array; sat : int array }

let make vectors =
  { exceed = Array.map (fun (nv : node_vectors) -> nv.exceed) vectors;
    sat = Array.map (fun (nv : node_vectors) -> nv.sat) vectors }

let saturated t ~member ~k = k >= t.sat.(member)

(* The reference fold of formula (5) multiplies the per-node survival
   terms left to right starting from 1.0; every variant below preserves
   that exact operation order, which is the bit-identity argument. *)
let system_failure t ~k =
  if Array.length k <> Array.length t.exceed then
    invalid_arg "Incremental.system_failure: length mismatch";
  let survive = ref 1.0 in
  Array.iteri
    (fun j v -> survive := !survive *. (1.0 -. v.(k.(j))))
    t.exceed;
  Rounding.clamp01 (Rounding.up (1.0 -. !survive))

let prefix_into t ~k prefix =
  let members = Array.length t.exceed in
  if Array.length k <> members then
    invalid_arg "Incremental.prefix_into: length mismatch";
  if Array.length prefix < members + 1 then
    invalid_arg "Incremental.prefix_into: prefix too short";
  prefix.(0) <- 1.0;
  for j = 0 to members - 1 do
    prefix.(j + 1) <- prefix.(j) *. (1.0 -. t.exceed.(j).(k.(j)))
  done

let candidate_failure t ~k ~prefix ~j =
  let members = Array.length t.exceed in
  let survive = ref (prefix.(j) *. (1.0 -. t.exceed.(j).(k.(j) + 1))) in
  for i = j + 1 to members - 1 do
    survive := !survive *. (1.0 -. t.exceed.(i).(k.(i)))
  done;
  Rounding.clamp01 (Rounding.up (1.0 -. !survive))
