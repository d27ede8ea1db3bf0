module Text_table = Ftes_util.Text_table
module Csv = Ftes_util.Csv

(* --- metrics snapshot rendering --- *)

let metrics_to_csv (s : Metrics.snapshot) =
  let header = [ "kind"; "name"; "value"; "count"; "sum"; "mean"; "p50"; "p99" ] in
  let counters =
    List.map
      (fun (name, v) -> [ "counter"; name; string_of_int v; ""; ""; ""; ""; "" ])
      s.Metrics.counters
  in
  let gauges =
    List.map
      (fun (name, v) -> [ "gauge"; name; Printf.sprintf "%.17g" v; ""; ""; ""; ""; "" ])
      s.Metrics.gauges
  in
  let histograms =
    List.map
      (fun (name, h) ->
        [ "histogram"; name; "";
          string_of_int (Metrics.hist_count h);
          string_of_int (Metrics.hist_sum h);
          Printf.sprintf "%.1f" (Metrics.hist_mean h);
          Printf.sprintf "%.0f" (Metrics.hist_quantile h 0.5);
          Printf.sprintf "%.0f" (Metrics.hist_quantile h 0.99) ])
      s.Metrics.histograms
  in
  header :: (counters @ gauges @ histograms)

let write_metrics_csv path snapshot =
  Csv.write_file path (metrics_to_csv snapshot)

(* --- profile breakdown --- *)

type phase = {
  phase : string;
  count : int;
  total_ns : int;
  alloc_b : int;
}

(* Recover per-span-name aggregates from the snapshot's
   [span.<name>.{count,ns,alloc_b}] counter triples. *)
let phases_of_snapshot (s : Metrics.snapshot) =
  let prefix = Span.span_prefix in
  let plen = String.length prefix in
  let strip_suffix name suffix =
    let slen = String.length suffix in
    let n = String.length name in
    if n > plen + slen && String.sub name (n - slen) slen = suffix then
      Some (String.sub name plen (n - plen - slen))
    else None
  in
  let counter name = Option.value ~default:0 (Metrics.find_counter s name) in
  s.Metrics.counters
  |> List.filter_map (fun (name, count) ->
         if String.length name <= plen || String.sub name 0 plen <> prefix then
           None
         else
           match strip_suffix name ".count" with
           | None -> None
           | Some phase ->
               Some
                 { phase;
                   count;
                   total_ns = counter (prefix ^ phase ^ ".ns");
                   alloc_b = counter (prefix ^ phase ^ ".alloc_b") })
  |> List.sort (fun a b -> compare (b.total_ns, a.phase) (a.total_ns, b.phase))

let profile_to_text ~wall_ns (s : Metrics.snapshot) =
  let phases = phases_of_snapshot s in
  let table =
    Text_table.create
      ~headers:[ "phase"; "calls"; "total ms"; "% wall"; "alloc MB" ]
  in
  Text_table.set_aligns table
    [ Text_table.Left; Text_table.Right; Text_table.Right; Text_table.Right;
      Text_table.Right ];
  let pct ns =
    if wall_ns <= 0 then 0.0 else 100.0 *. float_of_int ns /. float_of_int wall_ns
  in
  List.iter
    (fun p ->
      Text_table.add_row table
        [ p.phase;
          string_of_int p.count;
          Text_table.cell_float (Clock.ns_to_ms p.total_ns);
          Text_table.cell_float ~decimals:1 (pct p.total_ns);
          Text_table.cell_float (float_of_int p.alloc_b /. 1048576.0) ])
    phases;
  Text_table.add_separator table;
  Text_table.add_row table
    [ "(wall clock)"; "1"; Text_table.cell_float (Clock.ns_to_ms wall_ns);
      "100.0"; "" ];
  Text_table.render table

let profile_to_csv ~wall_ns (s : Metrics.snapshot) =
  [ "phase"; "calls"; "total_ns"; "pct_wall"; "alloc_b" ]
  :: (phases_of_snapshot s
     |> List.map (fun p ->
            [ p.phase;
              string_of_int p.count;
              string_of_int p.total_ns;
              (if wall_ns <= 0 then "0"
               else
                 Printf.sprintf "%.2f"
                   (100.0 *. float_of_int p.total_ns /. float_of_int wall_ns));
              string_of_int p.alloc_b ]))
