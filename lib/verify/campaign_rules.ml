(* Rules over the raw JSON documents of a campaign directory: the
   manifest, the per-shard checkpoints and the merged result.

   Everything here is audited at the document level, independently of
   [Ftes_campaign]'s decoders: fingerprints are recomputed from the
   parsed manifest (the JSON printer round-trips, so re-minifying the
   parsed document reproduces the writer's bytes), the shard partition
   is re-derived from the planner's formula, and the merge identities
   are checked point by point.

   The frontier-union rule leans on the archive's eviction invariant:
   a merged representative is always one of the inserted (checkpoint)
   points, and no inserted point may strictly dominate a kept
   representative — if it did, its grid box would either have claimed
   the same box (winning the representative seat) or evicted the
   representative's box.  Both halves hold for every eps. *)

module Json = Ftes_util.Json
module D = Diagnostic
open Json

let campaign_exn subject =
  match subject.Subject.campaign with
  | Some c -> c
  | None -> invalid_arg "verifier: campaign rule run without campaign docs"

let manifest_fingerprint manifest = Ftes_util.Fingerprint.of_json manifest

(* The planner's formula; must match [Ftes_campaign.Manifest.shard_range]. *)
let plan_range ~apps ~shards i = (i * apps / shards, (i + 1) * apps / shards)

(* apps, shards and the cell count, when the manifest is well-formed
   enough to extract them; rules beyond campaign/manifest-schema stay
   silent otherwise (that rule already reports the defect). *)
let plan_of_manifest manifest =
  let* apps = field "apps" to_int manifest in
  let* shards = field "shards" to_int manifest in
  let axis name =
    let* items = field name to_list manifest in
    Ok (List.length items)
  in
  let* n_sers = axis "sers" in
  let* n_hpds = axis "hpds" in
  let* n_policies = axis "policies" in
  if apps < 1 || shards < 1 || shards > apps then Error "degenerate plan"
  else Ok (apps, shards, n_sers * n_hpds * n_policies)

(* campaign/manifest-schema *)
let check_manifest subject =
  let rule = "campaign/manifest-schema" in
  let c = campaign_exn subject in
  let m = c.Subject.manifest in
  let err fmt = Printf.ksprintf (fun d -> [ D.error ~rule "%s" d ]) fmt in
  let version =
    match field "schema_version" to_int m with
    | Ok 1 -> []
    | Ok v -> err "manifest: unsupported schema_version %d (supported: 1)" v
    | Error e -> err "manifest: %s" e
  in
  let int_field name low =
    match field name to_int m with
    | Ok v when v >= low -> []
    | Ok v -> err "manifest: %s = %d (must be >= %d)" name v low
    | Error e -> err "manifest: %s" e
  in
  let axis name =
    match field name to_list m with
    | Ok [] -> err "manifest: empty %s axis" name
    | Ok _ -> []
    | Error e -> err "manifest: %s" e
  in
  let shards_bound =
    match (field "apps" to_int m, field "shards" to_int m) with
    | Ok apps, Ok shards when shards > apps ->
        err "manifest: %d shards for %d applications" shards apps
    | _ -> []
  in
  let eps =
    match field "eps" to_float m with
    | Ok e when Float.is_finite e && e >= 0.0 -> []
    | Ok e -> err "manifest: eps = %g (must be finite and >= 0)" e
    | Error e -> err "manifest: %s" e
  in
  let params =
    match member "params" m with
    | Ok (Object _) -> []
    | Ok _ -> err "manifest: params is not an object"
    | Error e -> err "manifest: %s" e
  in
  List.concat
    [ version; int_field "apps" 1; int_field "shards" 1; int_field "seed" 0;
      shards_bound; axis "sers"; axis "hpds"; axis "policies"; eps; params ]

(* campaign/shard-partition: every checkpoint's [shard, lo, hi) matches
   the planner's formula, no shard is claimed twice — which makes the
   ranges disjoint and, once all shards are present, a cover of
   [0, apps).  Completeness is only demanded once a merged result
   exists. *)
let check_partition subject =
  let rule = "campaign/shard-partition" in
  let c = campaign_exn subject in
  match plan_of_manifest c.Subject.manifest with
  | Error _ -> []
  | Ok (apps, shards, _) ->
      let seen = Hashtbl.create 8 in
      let per_checkpoint =
        List.concat_map
          (fun (label, doc) ->
            match
              let* shard = field "shard" to_int doc in
              let* lo = field "lo" to_int doc in
              let* hi = field "hi" to_int doc in
              Ok (shard, lo, hi)
            with
            | Error e -> [ D.error ~rule "%s: %s" label e ]
            | Ok (shard, lo, hi) ->
                if shard < 0 || shard >= shards then
                  [ D.error ~rule "%s: shard %d outside [0, %d)" label shard
                      shards ]
                else
                  let dup =
                    match Hashtbl.find_opt seen shard with
                    | Some other ->
                        [ D.error ~rule
                            "%s: shard %d already checkpointed by %s" label
                            shard other ]
                    | None ->
                        Hashtbl.replace seen shard label;
                        []
                  in
                  let exp_lo, exp_hi = plan_range ~apps ~shards shard in
                  let range =
                    if lo <> exp_lo || hi <> exp_hi then
                      [ D.error ~rule
                          "%s: shard %d covers [%d, %d), the plan says \
                           [%d, %d)"
                          label shard lo hi exp_lo exp_hi ]
                    else []
                  in
                  dup @ range)
          c.Subject.checkpoints
      in
      let missing =
        if c.Subject.merged = None then []
        else
          List.filter_map
            (fun shard ->
              if Hashtbl.mem seen shard then None
              else
                Some
                  (D.error ~rule
                     "merged result present but shard %d has no checkpoint \
                      — the partition does not cover [0, %d)"
                     shard apps))
            (List.init shards Fun.id)
      in
      per_checkpoint @ missing

(* campaign/checkpoint-fingerprint: every checkpoint (and the merged
   result) is stamped with the fingerprint of this manifest, and speaks
   schema version 1. *)
let check_fingerprints subject =
  let rule = "campaign/checkpoint-fingerprint" in
  let c = campaign_exn subject in
  let expected = manifest_fingerprint c.Subject.manifest in
  let check_doc label doc =
    let version =
      match field "schema_version" to_int doc with
      | Ok 1 -> []
      | Ok v ->
          [ D.error ~rule "%s: unsupported schema_version %d (supported: 1)"
              label v ]
      | Error e -> [ D.error ~rule "%s: %s" label e ]
    in
    let fp =
      match field "manifest_fingerprint" to_string_value doc with
      | Ok fp when fp = expected -> []
      | Ok fp ->
          [ D.error ~rule
              "%s: stamped for manifest %s, this campaign's manifest is %s"
              label fp expected ]
      | Error e -> [ D.error ~rule "%s: %s" label e ]
    in
    version @ fp
  in
  List.concat_map (fun (label, doc) -> check_doc label doc) c.Subject.checkpoints
  @ (match c.Subject.merged with
    | None -> []
    | Some doc -> check_doc "merged" doc)

let shard_docs_in_order c ~shards =
  let by_shard = Array.make shards None in
  List.iter
    (fun (label, doc) ->
      match field "shard" to_int doc with
      | Ok shard when shard >= 0 && shard < shards ->
          if by_shard.(shard) = None then by_shard.(shard) <- Some (label, doc)
      | _ -> ())
    c.Subject.checkpoints;
  let rec collect acc i =
    if i < 0 then Some acc
    else
      match by_shard.(i) with
      | None -> None
      | Some entry -> collect (entry :: acc) (i - 1)
  in
  collect [] (shards - 1)

let cells_of doc = field "cells" to_list doc

(* campaign/merge-costs: per cell, the merged cost array is exactly the
   shard cost arrays concatenated in shard order, [apps] entries in
   total, under matching cell keys. *)
let check_merge_costs subject =
  let rule = "campaign/merge-costs" in
  let c = campaign_exn subject in
  match (c.Subject.merged, plan_of_manifest c.Subject.manifest) with
  | None, _ | _, Error _ -> []
  | Some merged, Ok (apps, shards, n_cells) -> (
      match shard_docs_in_order c ~shards with
      | None -> [] (* campaign/shard-partition reports the gap *)
      | Some ordered -> (
          match cells_of merged with
          | Error e -> [ D.error ~rule "merged: %s" e ]
          | Ok merged_cells ->
              if List.length merged_cells <> n_cells then
                [ D.error ~rule "merged: %d cells, the grid has %d"
                    (List.length merged_cells) n_cells ]
              else
                List.concat
                  (List.mapi
                     (fun index mcell ->
                       let key_of doc =
                         let* ser = field "ser" to_float doc in
                         let* hpd = field "hpd" to_float doc in
                         let* policy = field "policy" to_string_value doc in
                         Ok (ser, hpd, policy)
                       in
                       match
                         let* mkey = key_of mcell in
                         let* mcosts = field "costs" to_list mcell in
                         Ok (mkey, mcosts)
                       with
                       | Error e ->
                           [ D.error ~rule "merged cell %d: %s" index e ]
                       | Ok (mkey, mcosts) ->
                           let parts =
                             List.map
                               (fun (label, doc) ->
                                 match cells_of doc with
                                 | Error e -> Error (label, e)
                                 | Ok cells -> (
                                     match List.nth_opt cells index with
                                     | None ->
                                         Error
                                           ( label,
                                             Printf.sprintf
                                               "no cell %d" index )
                                     | Some cell -> (
                                         match
                                           let* key = key_of cell in
                                           let* costs =
                                             field "costs" to_list cell
                                           in
                                           Ok (key, costs)
                                         with
                                         | Error e -> Error (label, e)
                                         | Ok ok -> Ok (label, ok))))
                               ordered
                           in
                           let errors =
                             List.filter_map
                               (function
                                 | Error (label, e) ->
                                     Some
                                       (D.error ~rule "%s, cell %d: %s" label
                                          index e)
                                 | Ok _ -> None)
                               parts
                           in
                           if errors <> [] then errors
                           else
                             let keyed =
                               List.filter_map Result.to_option parts
                             in
                             let key_mismatch =
                               List.filter_map
                                 (fun (label, (key, _)) ->
                                   if key <> mkey then
                                     Some
                                       (D.error ~rule
                                          "%s, cell %d: key differs from \
                                           the merged cell's"
                                          label index)
                                   else None)
                                 keyed
                             in
                             let concat =
                               List.concat_map
                                 (fun (_, (_, costs)) -> costs)
                                 keyed
                             in
                             let cost_mismatch =
                               if List.length mcosts <> apps then
                                 [ D.error ~rule
                                     "merged cell %d: %d cost entries for \
                                      %d applications"
                                     index (List.length mcosts) apps ]
                               else if concat <> mcosts then
                                 [ D.error ~rule
                                     "merged cell %d: costs are not the \
                                      concatenation of the shard costs"
                                     index ]
                               else []
                             in
                             key_mismatch @ cost_mismatch)
                     merged_cells)))

(* One frontier point, reduced to comparable data. *)
type pt = { vec : float * float * float; arrays : int list list }

let pt_of_json json =
  let* cost = field "cost" to_float json in
  let* slack = field "slack_ms" to_float json in
  let* margin = field "margin_log10" to_float json in
  let ints name = field name (list_of to_int) json in
  let* members = ints "members" in
  let* levels = ints "levels" in
  let* reexecs = ints "reexecs" in
  let* mapping = ints "mapping" in
  (* min-oriented vector: cost minimized, slack and margin maximized *)
  Ok { vec = (cost, -.slack, -.margin); arrays = [ members; levels; reexecs; mapping ] }

let strictly_dominates (a1, a2, a3) (b1, b2, b3) =
  a1 <= b1 && a2 <= b2 && a3 <= b3 && (a1 < b1 || a2 < b2 || a3 < b3)

(* campaign/merge-frontier: the merged frontier is exactly what the
   union of the checkpoint points supports — every merged point is one
   of the checkpoint points, and no checkpoint point strictly dominates
   a merged point (valid for every eps; see the header comment). *)
let check_merge_frontier subject =
  let rule = "campaign/merge-frontier" in
  let c = campaign_exn subject in
  match (c.Subject.merged, plan_of_manifest c.Subject.manifest) with
  | None, _ | _, Error _ -> []
  | Some merged, Ok (_, shards, _) -> (
      match (shard_docs_in_order c ~shards, cells_of merged) with
      | None, _ | _, Error _ -> [] (* reported by the sibling rules *)
      | Some ordered, Ok merged_cells ->
          List.concat
            (List.mapi
               (fun index mcell ->
                 let merged_pts =
                   let* frontier = member "frontier" mcell in
                   field "points"
                     (list_ofi (fun i item ->
                          Result.map_error
                            (Printf.sprintf "point %d: %s" (i + 1))
                            (pt_of_json item)))
                     frontier
                 in
                 let shard_pts =
                   List.fold_left
                     (fun acc (label, doc) ->
                       let* acc = acc in
                       let* cells = cells_of doc in
                       match List.nth_opt cells index with
                       | None -> Error (label ^ ": missing cell")
                       | Some cell ->
                           let* pts =
                             Result.map_error
                               (fun e -> label ^ ": " ^ e)
                               (field "points" (list_of pt_of_json) cell)
                           in
                           Ok (List.rev_append pts acc))
                     (Ok []) ordered
                 in
                 match (merged_pts, shard_pts) with
                 | Error e, _ | _, Error e ->
                     [ D.error ~rule "cell %d: %s" index e ]
                 | Ok merged_pts, Ok shard_pts ->
                     List.concat_map
                       (fun p ->
                         let provenance =
                           if List.exists (fun s -> s = p) shard_pts then []
                           else
                             [ D.error ~rule
                                 "cell %d: merged point (cost %g) appears \
                                  in no shard checkpoint"
                                 index
                                 (let c, _, _ = p.vec in
                                  c) ]
                         in
                         let dominated =
                           if
                             List.exists
                               (fun s -> strictly_dominates s.vec p.vec)
                               shard_pts
                           then
                             [ D.error ~rule
                                 "cell %d: a checkpoint point strictly \
                                  dominates a merged frontier point \
                                  (cost %g)"
                                 index
                                 (let c, _, _ = p.vec in
                                  c) ]
                           else []
                         in
                         provenance @ dominated)
                       merged_pts)
               merged_cells))

let all =
  [ Rule.make ~id:"campaign/manifest-schema"
      ~synopsis:"campaign manifest is well-formed v1"
      ~requires:Rule.Needs_campaign check_manifest;
    Rule.make ~id:"campaign/shard-partition"
      ~synopsis:"shard checkpoints follow the disjoint covering plan"
      ~requires:Rule.Needs_campaign check_partition;
    Rule.make ~id:"campaign/checkpoint-fingerprint"
      ~synopsis:"checkpoints and merge are stamped for this manifest"
      ~requires:Rule.Needs_campaign check_fingerprints;
    Rule.make ~id:"campaign/merge-costs"
      ~synopsis:"merged costs are the shard costs concatenated"
      ~requires:Rule.Needs_campaign check_merge_costs;
    Rule.make ~id:"campaign/merge-frontier"
      ~synopsis:"merged frontier is the undominated union of shard points"
      ~requires:Rule.Needs_campaign check_merge_frontier ]
