module Metrics = Ftes_obs.Metrics

type family = {
  lookups : Metrics.counter;
  hits : Metrics.counter;
  misses : Metrics.counter;
  capacity_drops : Metrics.counter;
}

let family prefix =
  let counter name = Metrics.counter (prefix ^ "." ^ name) in
  { lookups = counter "lookups";
    hits = counter "hits";
    misses = counter "misses";
    capacity_drops = counter "capacity_drops" }

let reset f =
  List.iter Metrics.reset_counter
    [ f.lookups; f.hits; f.misses; f.capacity_drops ]

module Make (K : Hashtbl.HashedType) = struct
  module Tbl = Hashtbl.Make (K)

  type key = K.t

  type 'v t = {
    table : 'v Tbl.t;
    lock : Mutex.t;
    capacity : int;
    family : family;
    mutable hits : int;  (* guarded by [lock], like [table]. *)
    mutable misses : int;
  }

  let with_table ~capacity family table =
    { table; lock = Mutex.create (); capacity; family; hits = 0; misses = 0 }

  let empty_table capacity = Tbl.create (max 1 (min capacity 1024))

  let create ?(capacity = 1 lsl 18) family =
    if capacity < 0 then invalid_arg "Memo.create: negative capacity";
    with_table ~capacity family (empty_table capacity)

  let locked t f = Mutex.protect t.lock f

  let find t key =
    Metrics.incr t.family.lookups;
    let found =
      locked t (fun () ->
          let found = Tbl.find_opt t.table key in
          (match found with
          | Some _ -> t.hits <- t.hits + 1
          | None -> t.misses <- t.misses + 1);
          found)
    in
    Metrics.incr
      (match found with Some _ -> t.family.hits | None -> t.family.misses);
    found

  let add t key v =
    locked t (fun () ->
        match Tbl.find_opt t.table key with
        | Some stored -> stored
        | None ->
            if Tbl.length t.table < t.capacity then Tbl.add t.table key v
            else Metrics.incr t.family.capacity_drops;
            v)

  let migrate ?(same_keys = false) ~keep t =
    let kept = ref 0 and dropped = ref 0 in
    let table =
      if same_keys then begin
        (* Keys survive verbatim, so a bucket-preserving copy plus an
           in-place filter skips rehashing every key — migration is the
           floor of a warm what-if rerun, and the rehash dominated it. *)
        let table = locked t (fun () -> Tbl.copy t.table) in
        Tbl.filter_map_inplace
          (fun key v ->
            match keep key v with
            | Some (_, v) ->
                incr kept;
                Some v
            | None ->
                incr dropped;
                None)
          table;
        table
      end
      else begin
        let table = empty_table t.capacity in
        locked t (fun () ->
            Tbl.iter
              (fun key v ->
                match keep key v with
                | Some (key, v) ->
                    incr kept;
                    Tbl.replace table key v
                | None -> incr dropped)
              t.table);
        table
      end
    in
    (with_table ~capacity:t.capacity t.family table, (!kept, !dropped))

  let hits t = locked t (fun () -> t.hits)

  let misses t = locked t (fun () -> t.misses)

  let length t = locked t (fun () -> Tbl.length t.table)

  let capacity t = t.capacity

  let fold f t init = locked t (fun () -> Tbl.fold f t.table init)
end
