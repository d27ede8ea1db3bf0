(* Per-layer split of a traced run.

   Each op runs under a fresh in-memory span sink.  Its completed
   spans — the benchmark's own around every public call, plus the ones
   the library already opens — are folded into per-layer self time and
   self allocation: a span's duration minus the part its direct
   children cover.  Events arrive in completion order on one domain, so
   a child always completes before its parent and one running sum per
   depth is enough. *)

module Span = Ftes_obs.Span
module Sink = Ftes_obs.Sink

(* Layer metric prefix of every span name the benchmark can meet.  A
   span the table does not know (one added to the library later) lands
   in "other" rather than disappearing from the split. *)
let layers =
  [ ("driver.parse", [ "driver/parse" ]);
    ("driver.render", [ "driver/render" ]);
    ("driver.serve", [ "driver/serve" ]);
    ("analyze.preflight", [ "analyze/preflight" ]);
    ("core.walk", [ "strategy/run" ]);
    ("core.mapping", [ "mapping/run" ]);
    ("core.escalate", [ "opt/escalate"; "opt/reduce" ]);
    ("core.evaluate", [ "opt/evaluate" ]);
    ("core.finalize", [ "strategy/finalize" ]);
    ("sched.schedule", [ "sched/schedule" ]);
    ("sfp.node_table", [ "sfp/node_table" ]);
    ("bnb.solve", [ "bnb/solve" ]);
    ("pareto.insert", [ "pareto/insert"; "pareto/merge" ]);
    ("whatif.rerun", [ "whatif/rerun" ]);
    ("campaign.kill", [ "campaign/kill" ]);
    ("campaign.scan", [ "campaign/scan" ]);
    ("campaign.rerun", [ "campaign/rerun" ]);
    ("campaign.merge", [ "campaign/merge" ]);
    ("exp.cell", [ "exp/cell" ]);
    ("gen.population", [ "gen/population" ]);
    ("model.encode", [ "model/encode" ]);
    ("other", []) ]

let layer_names = List.map fst layers

let layer_of_span =
  let table = Hashtbl.create 32 in
  List.iter
    (fun (layer, spans) ->
      List.iter (fun span -> Hashtbl.replace table span layer) spans)
    layers;
  fun name -> Option.value ~default:"other" (Hashtbl.find_opt table name)

type acc = {
  self_ns : (string, int) Hashtbl.t;
  self_alloc_b : (string, float) Hashtbl.t;
  mutable root_ns : int;  (** summed duration of the depth-0 spans. *)
}

let create () =
  { self_ns = Hashtbl.create 32; self_alloc_b = Hashtbl.create 32; root_ns = 0 }

let self_ms acc layer =
  float_of_int (Option.value ~default:0 (Hashtbl.find_opt acc.self_ns layer))
  *. 1e-6

let self_alloc_mb acc layer =
  Option.value ~default:0.0 (Hashtbl.find_opt acc.self_alloc_b layer) *. 1e-6

let bump tbl key v zero add =
  Hashtbl.replace tbl key (add v (Option.value ~default:zero (Hashtbl.find_opt tbl key)))

let fold acc (events : Sink.event list) =
  let depth_max =
    List.fold_left (fun m (e : Sink.event) -> max m e.Sink.depth) 0 events
  in
  let child_ns = Array.make (depth_max + 2) 0 in
  let child_alloc = Array.make (depth_max + 2) 0.0 in
  List.iter
    (fun (e : Sink.event) ->
      let d = e.Sink.depth in
      let layer = layer_of_span e.Sink.name in
      bump acc.self_ns layer (e.Sink.dur_ns - child_ns.(d + 1)) 0 ( + );
      bump acc.self_alloc_b layer
        (e.Sink.alloc_b -. child_alloc.(d + 1))
        0.0 ( +. );
      child_ns.(d + 1) <- 0;
      child_alloc.(d + 1) <- 0.0;
      child_ns.(d) <- child_ns.(d) + e.Sink.dur_ns;
      child_alloc.(d) <- child_alloc.(d) +. e.Sink.alloc_b)
    events;
  acc.root_ns <- acc.root_ns + child_ns.(0)

(* Run [f] with every span it opens recorded, and fold them into
   [acc].  The sink is dropped afterwards, so memory stays bounded by
   one op's spans. *)
let traced acc f =
  let sink = Sink.memory () in
  Span.configure ~sink ();
  let result = Fun.protect ~finally:Span.disable f in
  fold acc (Sink.memory_events sink);
  result
