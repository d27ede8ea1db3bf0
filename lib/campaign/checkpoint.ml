module Json = Ftes_util.Json
module Config = Ftes_core.Config
module Synthetic = Ftes_exp.Synthetic
module Frontier_io = Ftes_pareto.Frontier_io
open Json

let schema_version = 1

type cell_result = {
  key : Synthetic.cell_key;
  costs : float option array;
  points : (int * Ftes_pareto.Archive.point) list;
  elapsed_s : float;
}

type t = {
  manifest_fingerprint : string;
  shard : int;
  lo : int;
  hi : int;
  complete : bool;
  cells : cell_result list;
}

let path ~dir shard = Filename.concat dir (Printf.sprintf "shard-%03d.json" shard)

let create ~manifest ~shard =
  let lo, hi = Manifest.shard_range manifest shard in
  {
    manifest_fingerprint = Manifest.fingerprint manifest;
    shard;
    lo;
    hi;
    complete = false;
    cells = [];
  }

let costs_to_json costs =
  List
    (Array.to_list
       (Array.map (function Some v -> Number v | None -> Null) costs))

let costs_of_json ~length json =
  let* items = to_list json in
  if List.length items <> length then
    Error
      (Printf.sprintf "costs: expected %d entries, found %d" length
         (List.length items))
  else
    let finite json =
      let* v = to_float json in
      if Float.is_finite v then Ok v else Error "costs: non-finite cost"
    in
    Result.map Array.of_list (list_of (nullable finite) json)

let cell_to_json (c : cell_result) =
  Object
    [ ("ser", Number c.key.Synthetic.ser);
      ("hpd", Number c.key.Synthetic.hpd);
      ("policy", String (Config.policy_name c.key.Synthetic.policy));
      ("elapsed_s", Number c.elapsed_s);
      ("costs", costs_to_json c.costs);
      ( "points",
        List
          (List.map
             (fun (app, p) ->
               match Frontier_io.point_to_json p with
               | Object fields -> Object (("app", int app) :: fields)
               | _ -> assert false)
             c.points) ) ]

let to_json t =
  Object
    [ Ftes_util.Versioned_json.field schema_version;
      ("manifest_fingerprint", String t.manifest_fingerprint);
      ("shard", int t.shard);
      ("lo", int t.lo);
      ("hi", int t.hi);
      ("complete", Bool t.complete);
      ("cells", List (List.map cell_to_json t.cells)) ]

(* Every point's design is re-validated against the problem the plan
   holds for (cell, application). *)
let cell_of_json ~manifest ~lo ~hi index json =
  let expected = Manifest.cell manifest index in
  let* ser = field "ser" to_float json in
  let* hpd = field "hpd" to_float json in
  let* policy_name = field "policy" to_string_value json in
  let named p = Config.policy_name p in
  if
    ser <> expected.Synthetic.ser
    || hpd <> expected.Synthetic.hpd
    || policy_name <> named expected.Synthetic.policy
  then
    Error
      (Printf.sprintf
         "cell %d: key (%g, %g, %s) does not match the manifest grid \
          (%g, %g, %s)"
         index ser hpd policy_name expected.Synthetic.ser
         expected.Synthetic.hpd
         (named expected.Synthetic.policy))
  else
    let* elapsed_s = field "elapsed_s" to_float json in
    let* costs = field "costs" (costs_of_json ~length:(hi - lo)) json in
    let point i item =
      let row = i + 1 in
      let* app = field "app" to_int item in
      if app < lo || app >= hi then
        Error
          (Printf.sprintf
             "cell %d, point %d: application %d outside the shard \
              range [%d, %d)"
             index row app lo hi)
      else
        let problem = Manifest.problem manifest ~cell:index ~app in
        let* p = Frontier_io.point_of_json ~problem ~row item in
        Ok (app, p)
    in
    let* points = field "points" (list_ofi point) json in
    Ok { key = expected; costs; points; elapsed_s }

let of_json ~manifest json =
  Ftes_util.Versioned_json.decode ~what:"campaign checkpoint"
    ~accept_v0:false ~current:schema_version
    (fun json ->
      let* fp = field "manifest_fingerprint" to_string_value json in
      let expected_fp = Manifest.fingerprint manifest in
      if fp <> expected_fp then
        Error
          (Printf.sprintf
             "manifest fingerprint %s does not match this campaign (%s)" fp
             expected_fp)
      else
        let* shard = field "shard" to_int json in
        if shard < 0 || shard >= manifest.Manifest.shards then
          Error
            (Printf.sprintf "shard %d outside [0, %d)" shard
               manifest.Manifest.shards)
        else
          let exp_lo, exp_hi = Manifest.shard_range manifest shard in
          let* lo = field "lo" to_int json in
          let* hi = field "hi" to_int json in
          if lo <> exp_lo || hi <> exp_hi then
            Error
              (Printf.sprintf
                 "shard %d: range [%d, %d) does not match the plan [%d, %d)"
                 shard lo hi exp_lo exp_hi)
          else
            let* complete = field "complete" to_bool json in
            let* items = field "cells" to_list json in
            let n_cells = Manifest.n_cells manifest in
            if List.length items > n_cells then
              Error
                (Printf.sprintf "%d cells recorded, the grid has only %d"
                   (List.length items) n_cells)
            else if complete && List.length items <> n_cells then
              Error
                (Printf.sprintf "marked complete with %d of %d cells recorded"
                   (List.length items) n_cells)
            else
              let* cells =
                list_ofi (cell_of_json ~manifest ~lo ~hi) (List items)
              in
              Ok { manifest_fingerprint = fp; shard; lo; hi; complete; cells })
    json

let save ~dir t = Ftes_util.Versioned_json.save (path ~dir t.shard) (to_json t)

let load ~manifest ~dir shard =
  Ftes_util.Versioned_json.load
    (fun json ->
      let* t = of_json ~manifest json in
      if t.shard <> shard then
        Error (Printf.sprintf "holds shard %d, expected %d" t.shard shard)
      else Ok t)
    (path ~dir shard)
