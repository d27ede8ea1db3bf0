module Json = Ftes_util.Json
module Config = Ftes_core.Config
module Workload = Ftes_gen.Workload
module Synthetic = Ftes_exp.Synthetic
module Archive = Ftes_pareto.Archive
module Frontier_io = Ftes_pareto.Frontier_io
open Json

let schema_version = 1

let filename = "merged.json"

type merged_cell = {
  key : Synthetic.cell_key;
  costs : float option array;
  frontier : Archive.t;
  elapsed_s : float;
}

type t = { manifest_fingerprint : string; cells : merged_cell list }

let of_checkpoints ~manifest checkpoints =
  let shards = manifest.Manifest.shards in
  let fp = Manifest.fingerprint manifest in
  let by_shard = Array.make shards None in
  let rec place = function
    | [] -> Ok ()
    | (c : Checkpoint.t) :: rest ->
        if c.Checkpoint.manifest_fingerprint <> fp then
          Error
            (Printf.sprintf "shard %d: checkpoint from another campaign"
               c.Checkpoint.shard)
        else if c.Checkpoint.shard < 0 || c.Checkpoint.shard >= shards then
          Error (Printf.sprintf "shard %d outside [0, %d)" c.Checkpoint.shard shards)
        else if by_shard.(c.Checkpoint.shard) <> None then
          Error (Printf.sprintf "shard %d: duplicate checkpoint" c.Checkpoint.shard)
        else if not c.Checkpoint.complete then
          Error (Printf.sprintf "shard %d: checkpoint incomplete" c.Checkpoint.shard)
        else begin
          by_shard.(c.Checkpoint.shard) <- Some c;
          place rest
        end
  in
  let* () = place checkpoints in
  let rec collect acc i =
    if i < 0 then Ok acc
    else
      match by_shard.(i) with
      | None -> Error (Printf.sprintf "shard %d: checkpoint missing" i)
      | Some c -> collect (c :: acc) (i - 1)
  in
  let* ordered = collect [] (shards - 1) in
  let spec = Manifest.archive_spec manifest in
  let cells =
    List.mapi
      (fun index key ->
        let per_shard =
          List.map (fun (c : Checkpoint.t) -> List.nth c.Checkpoint.cells index) ordered
        in
        let costs =
          Array.concat (List.map (fun (c : Checkpoint.cell_result) -> c.Checkpoint.costs) per_shard)
        in
        let frontier =
          List.fold_left
            (fun acc (c : Checkpoint.cell_result) ->
              Archive.merge acc
                (Archive.of_points ~spec (List.map snd c.Checkpoint.points)))
            (Archive.create ~spec ()) per_shard
        in
        let elapsed_s =
          List.fold_left
            (fun acc (c : Checkpoint.cell_result) -> acc +. c.Checkpoint.elapsed_s)
            0.0 per_shard
        in
        { key; costs; frontier; elapsed_s })
      (Manifest.cells manifest)
  in
  Ok { manifest_fingerprint = fp; cells }

let run_sequential ~manifest =
  let specs =
    Workload.paper_suite ~params:manifest.Manifest.params
      ~count:manifest.Manifest.apps ~seed:manifest.Manifest.seed ()
  in
  let spec = Manifest.archive_spec manifest in
  let cells =
    List.map
      (fun key ->
        let problems =
          Synthetic.problems ~params:manifest.Manifest.params key specs
        in
        let run = Synthetic.run_cell ~problems key in
        {
          key;
          costs = run.Synthetic.costs;
          frontier =
            Archive.of_points ~spec (List.map snd run.Synthetic.points);
          elapsed_s = run.Synthetic.elapsed_s;
        })
      (Manifest.cells manifest)
  in
  { manifest_fingerprint = Manifest.fingerprint manifest; cells }

let cell_to_json c =
  Object
    [ ("ser", Number c.key.Synthetic.ser);
      ("hpd", Number c.key.Synthetic.hpd);
      ("policy", String (Config.policy_name c.key.Synthetic.policy));
      ("costs", Checkpoint.costs_to_json c.costs);
      ("frontier", Frontier_io.to_json c.frontier) ]

let to_json t =
  Object
    [ Ftes_util.Versioned_json.field schema_version;
      ("manifest_fingerprint", String t.manifest_fingerprint);
      ("cells", List (List.map cell_to_json t.cells)) ]

let fingerprint t = Ftes_util.Fingerprint.of_json (to_json t)

let equal a b =
  fingerprint a = fingerprint b
  && List.length a.cells = List.length b.cells
  && List.for_all2
       (fun ca cb ->
         ca.key = cb.key && ca.costs = cb.costs
         && Archive.equal ca.frontier cb.frontier)
       a.cells b.cells

let save ~dir t =
  Ftes_util.Versioned_json.save (Filename.concat dir filename) (to_json t)
