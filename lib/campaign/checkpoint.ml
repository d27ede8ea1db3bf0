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

let cell_to_json (c : cell_result) =
  Object
    [ ("ser", Number c.key.Synthetic.ser);
      ("hpd", Number c.key.Synthetic.hpd);
      ("policy", String (Config.policy_name c.key.Synthetic.policy));
      ("elapsed_s", Number c.elapsed_s);
      ( "costs",
        List
          (Array.to_list
             (Array.map
                (function Some v -> Number v | None -> Null)
                c.costs)) );
      ( "points",
        List
          (List.map
             (fun (app, p) ->
               match Frontier_io.point_to_json p with
               | Object fields ->
                   Object (("app", Number (float_of_int app)) :: fields)
               | _ -> assert false)
             c.points) ) ]

let to_json t =
  Object
    [ Ftes_util.Versioned_json.field schema_version;
      ("manifest_fingerprint", String t.manifest_fingerprint);
      ("shard", Number (float_of_int t.shard));
      ("lo", Number (float_of_int t.lo));
      ("hi", Number (float_of_int t.hi));
      ("complete", Bool t.complete);
      ("cells", List (List.map cell_to_json t.cells)) ]

let costs_of_json ~lo ~hi json =
  let* items = to_list json in
  if List.length items <> hi - lo then
    Error
      (Printf.sprintf "costs: expected %d entries, found %d" (hi - lo)
         (List.length items))
  else
    let rec build acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | Null :: rest -> build (None :: acc) rest
      | item :: rest ->
          let* v = to_float item in
          if Float.is_finite v then build (Some v :: acc) rest
          else Error "costs: non-finite cost"
    in
    build [] items

(* Every point's design is re-validated against the problem the plan
   holds for (cell, application). *)
let cell_of_json ~manifest ~lo ~hi ~index json =
  let expected = Manifest.cell manifest index in
  let* ser = Result.bind (member "ser" json) to_float in
  let* hpd = Result.bind (member "hpd" json) to_float in
  let* policy_name = Result.bind (member "policy" json) to_string_value in
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
    let* elapsed_s = Result.bind (member "elapsed_s" json) to_float in
    let* costs = Result.bind (member "costs" json) (costs_of_json ~lo ~hi) in
    let* items = Result.bind (member "points" json) to_list in
    let rec build acc row = function
      | [] -> Ok (List.rev acc)
      | item :: rest ->
          let* app = Result.bind (member "app" item) to_int in
          if app < lo || app >= hi then
            Error
              (Printf.sprintf
                 "cell %d, point %d: application %d outside the shard \
                  range [%d, %d)"
                 index row app lo hi)
          else
            let problem = Manifest.problem manifest ~cell:index ~app in
            let* p = Frontier_io.point_of_json ~problem ~row item in
            build ((app, p) :: acc) (row + 1) rest
    in
    let* points = build [] 1 items in
    Ok { key = expected; costs; points; elapsed_s }

let of_json ~manifest json =
  let* () =
    Ftes_util.Versioned_json.check ~what:"campaign checkpoint"
      ~accept_v0:false ~current:schema_version json
  in
  let* fp = Result.bind (member "manifest_fingerprint" json) to_string_value in
  let expected_fp = Manifest.fingerprint manifest in
  if fp <> expected_fp then
    Error
      (Printf.sprintf
         "manifest fingerprint %s does not match this campaign (%s)" fp
         expected_fp)
  else
    let* shard = Result.bind (member "shard" json) to_int in
    if shard < 0 || shard >= manifest.Manifest.shards then
      Error (Printf.sprintf "shard %d outside [0, %d)" shard manifest.Manifest.shards)
    else
      let exp_lo, exp_hi = Manifest.shard_range manifest shard in
      let* lo = Result.bind (member "lo" json) to_int in
      let* hi = Result.bind (member "hi" json) to_int in
      if lo <> exp_lo || hi <> exp_hi then
        Error
          (Printf.sprintf
             "shard %d: range [%d, %d) does not match the plan [%d, %d)"
             shard lo hi exp_lo exp_hi)
      else
        let* complete = Result.bind (member "complete" json) to_bool in
        let* items = Result.bind (member "cells" json) to_list in
        let n_cells = Manifest.n_cells manifest in
        if List.length items > n_cells then
          Error
            (Printf.sprintf "%d cells recorded, the grid has only %d"
               (List.length items) n_cells)
        else if complete && List.length items <> n_cells then
          Error
            (Printf.sprintf
               "marked complete with %d of %d cells recorded"
               (List.length items) n_cells)
        else
          let rec build acc index = function
            | [] -> Ok (List.rev acc)
            | item :: rest ->
                let* c =
                  cell_of_json ~manifest ~lo ~hi ~index item
                in
                build (c :: acc) (index + 1) rest
          in
          let* cells = build [] 0 items in
          Ok { manifest_fingerprint = fp; shard; lo; hi; complete; cells }

let save ~dir t =
  Ftes_util.Atomic_file.write_string (path ~dir t.shard)
    (Json.to_string (to_json t) ^ "\n")

let load ~manifest ~dir shard =
  let file = path ~dir shard in
  if not (Sys.file_exists file) then
    Error (Printf.sprintf "%s: no checkpoint" file)
  else
    let text =
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Result.bind (Json.of_string text) (of_json ~manifest) with
    | Ok t when t.shard <> shard ->
        Error
          (Printf.sprintf "%s: holds shard %d, expected %d" file t.shard shard)
    | Ok t -> Ok t
    | Error e -> Error (Printf.sprintf "%s: %s" file e)
