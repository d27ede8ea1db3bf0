module Problem = Ftes_model.Problem
module Design = Ftes_model.Design
module Sfp = Ftes_sfp.Sfp

type key = { node : int; level : int; kmax : int; procs : int array }

(* The generic polymorphic hash samples only a prefix of the structure,
   so keys differing late in [procs] would chain; hash every element. *)
module Key_memo = Memo.Make (struct
  type t = key

  let equal a b =
    a.node = b.node && a.level = b.level && a.kmax = b.kmax
    && a.procs = b.procs

  let hash k =
    let h = 0x811c9dc5 + k.node + (31 * k.level) + (961 * k.kmax) in
    Array.fold_left (fun h x -> (h * 0x01000193) lxor (x + 1)) h k.procs
end)

type entry = { analysis : Sfp.node_analysis; exceed : float array }

type t = entry Key_memo.t

(* Process-wide totals over every instance live on the Ftes_obs
   registry, so metrics snapshots and the `ftes profile` breakdown see
   them without extra plumbing. *)
let family = Memo.family "sfp_cache"

let create ?capacity () = Key_memo.create ?capacity family

(* Ascending processes on [member], built without the intermediate
   list [Design.procs_on] returns — key construction runs on every
   kernel evaluation.  Neighbor designs explored by one
   escalation/reduction sweep share the mapping array physically
   ([Design.with_levels] keeps it, and every design constructor copies
   its input array), so a mapping array's contents are frozen for its
   lifetime and its identity keys a one-slot per-domain cache of the
   full member partition, computed once per sweep instead of twice per
   lookup. *)
type partition = {
  mutable p_mapping : int array;
  mutable p_procs : int array array;
}

let partition_key =
  Domain.DLS.new_key (fun () -> { p_mapping = [||]; p_procs = [||] })

let procs_of design ~member =
  let mapping = design.Design.mapping in
  let cache = Domain.DLS.get partition_key in
  if cache.p_mapping != mapping || Array.length cache.p_procs <= member
  then begin
    (* The length guard also covers empty mappings: all zero-length
       int arrays share one atom, so identity alone could not tell two
       empty-process designs apart. *)
    let members = Array.length design.Design.members in
    let n = Array.length mapping in
    let fill = Array.make members 0 in
    for p = 0 to n - 1 do
      fill.(mapping.(p)) <- fill.(mapping.(p)) + 1
    done;
    let procs = Array.init members (fun m -> Array.make fill.(m) 0) in
    Array.fill fill 0 members 0;
    for p = 0 to n - 1 do
      let m = mapping.(p) in
      procs.(m).(fill.(m)) <- p;
      fill.(m) <- fill.(m) + 1
    done;
    cache.p_mapping <- mapping;
    cache.p_procs <- procs
  end;
  cache.p_procs.(member)

let node_entry t problem design ~member ~kmax =
  let key =
    { node = design.Design.members.(member);
      level = design.Design.levels.(member);
      kmax;
      procs = procs_of design ~member }
  in
  match Key_memo.find t key with
  | Some entry -> entry
  | None ->
      (* [procs] is a fresh partition array, never mutated: the key can
         be stored as is. *)
      let analysis =
        Sfp.node_analysis ~kmax (Design.pfail_vector problem design ~member)
      in
      Key_memo.add t key
        { analysis; exceed = Ftes_sfp.Incremental.exceed_vector analysis }

let node_analysis t problem design ~member ~kmax =
  (node_entry t problem design ~member ~kmax).analysis

let exceed_vector t problem design ~member ~kmax =
  (node_entry t problem design ~member ~kmax).exceed

let migrate ?same_keys ~keep t =
  Key_memo.migrate ?same_keys
    ~keep:(fun key entry -> Option.map (fun key -> (key, entry)) (keep key))
    t

let hits = Key_memo.hits

let misses = Key_memo.misses

type totals = { total_hits : int; total_misses : int }

let totals () =
  { total_hits = Ftes_obs.Metrics.counter_value family.Memo.hits;
    total_misses = Ftes_obs.Metrics.counter_value family.Memo.misses }
