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

(* One exceedance vector per member, in member order. *)
type t = float array array

let make exceed = exceed

(* The reference fold of formula (5) multiplies the per-node survival
   terms left to right starting from 1.0; every variant below preserves
   that exact operation order, which is the bit-identity argument. *)
let system_failure t ~k =
  if Array.length k <> Array.length t then
    invalid_arg "Incremental.system_failure: length mismatch";
  let survive = ref 1.0 in
  Array.iteri
    (fun j v -> survive := !survive *. (1.0 -. v.(k.(j))))
    t;
  Rounding.clamp01 (Rounding.up (1.0 -. !survive))

let prefix_into t ~k prefix =
  let members = Array.length t in
  if Array.length k <> members then
    invalid_arg "Incremental.prefix_into: length mismatch";
  if Array.length prefix < members + 1 then
    invalid_arg "Incremental.prefix_into: prefix too short";
  prefix.(0) <- 1.0;
  for j = 0 to members - 1 do
    prefix.(j + 1) <- prefix.(j) *. (1.0 -. t.(j).(k.(j)))
  done

let candidate_failure t ~k ~prefix ~j =
  let members = Array.length t in
  let survive = ref (prefix.(j) *. (1.0 -. t.(j).(k.(j) + 1))) in
  for i = j + 1 to members - 1 do
    survive := !survive *. (1.0 -. t.(i).(k.(i)))
  done;
  Rounding.clamp01 (Rounding.up (1.0 -. !survive))
