module Json = Ftes_util.Json
open Json

type t = {
  delta_class : string;
  sfp_kept : int;
  sfp_dropped : int;
  evals_kept : int;
  evals_dropped : int;
  probes_kept : int;
  probes_dropped : int;
  steps_replayed : int;
  steps_total : int;
}

let pair kept dropped = Object [ ("kept", int kept); ("dropped", int dropped) ]

let to_json t =
  Object
    [ ("class", String t.delta_class);
      ("sfp", pair t.sfp_kept t.sfp_dropped);
      ("evals", pair t.evals_kept t.evals_dropped);
      ("probes", pair t.probes_kept t.probes_dropped);
      ( "steps",
        Object
          [ ("replayed", int t.steps_replayed); ("total", int t.steps_total) ]
      ) ]

let pair_of_json json =
  let* kept = field "kept" to_int json in
  let* dropped = field "dropped" to_int json in
  Ok (kept, dropped)

let of_json json =
  let* delta_class = field "class" to_string_value json in
  let* sfp_kept, sfp_dropped = field "sfp" pair_of_json json in
  let* evals_kept, evals_dropped = field "evals" pair_of_json json in
  let* probes_kept, probes_dropped = field "probes" pair_of_json json in
  let* steps = member "steps" json in
  let* steps_replayed = field "replayed" to_int steps in
  let* steps_total = field "total" to_int steps in
  Ok
    { delta_class; sfp_kept; sfp_dropped; evals_kept; evals_dropped;
      probes_kept; probes_dropped; steps_replayed; steps_total }
