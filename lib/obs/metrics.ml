(* Process-wide registry of named counters, gauges and log-scale
   histograms.  Instruments are created once (typically at module
   initialization of the instrumented library) and updated lock-free
   with atomics; the registry mutex only guards creation and
   snapshotting, never the hot-path updates. *)

type counter = { c_name : string; c_value : int Atomic.t }

type gauge = { g_name : string; g_value : float Atomic.t }

(* Bucket [i] counts observations v with [floor (log2 (max v 1)) = i],
   i.e. v in [2^i, 2^(i+1)); non-positive observations land in bucket
   0.  63 buckets cover the whole positive [int] range. *)
let n_buckets = 63

type histogram = {
  h_name : string;
  h_counts : int Atomic.t array;
  h_sum : int Atomic.t;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64

let registry_mutex = Mutex.create ()

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register name make match_existing =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some existing -> (
          match match_existing existing with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Ftes_obs.Metrics: %S already registered as a %s"
                   name (kind_name existing)))
      | None ->
          let v, instrument = make () in
          Hashtbl.replace registry name instrument;
          v)

let counter name =
  register name
    (fun () ->
      let c = { c_name = name; c_value = Atomic.make 0 } in
      (c, Counter c))
    (function Counter c -> Some c | Gauge _ | Histogram _ -> None)

let gauge name =
  register name
    (fun () ->
      let g = { g_name = name; g_value = Atomic.make 0.0 } in
      (g, Gauge g))
    (function Gauge g -> Some g | Counter _ | Histogram _ -> None)

let histogram name =
  register name
    (fun () ->
      let h =
        { h_name = name;
          h_counts = Array.init n_buckets (fun _ -> Atomic.make 0);
          h_sum = Atomic.make 0 }
      in
      (h, Histogram h))
    (function Histogram h -> Some h | Counter _ | Gauge _ -> None)

(* --- updates --- *)

let incr c = Atomic.incr c.c_value

let add c n =
  if n < 0 then invalid_arg "Ftes_obs.Metrics.add: counters are monotone";
  ignore (Atomic.fetch_and_add c.c_value n)

let counter_value c = Atomic.get c.c_value

(* Benchmarks measure one section at a time; zeroing a counter between
   sections is the one sanctioned break in monotonicity. *)
let reset_counter c = Atomic.set c.c_value 0

let set g v = Atomic.set g.g_value v

let bucket_of_value v =
  let rec log2 acc v = if v <= 1 then acc else log2 (acc + 1) (v lsr 1) in
  if v <= 1 then 0 else min (n_buckets - 1) (log2 0 v)

let observe h v =
  let v = max v 0 in
  Atomic.incr h.h_counts.(bucket_of_value v);
  ignore (Atomic.fetch_and_add h.h_sum v)

(* --- snapshots --- *)

type hist_snapshot = { buckets : int array; count : int; sum : int }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

let hist_count h = h.count

let hist_sum h = h.sum

let hist_mean h =
  if h.count = 0 then 0.0 else float_of_int h.sum /. float_of_int h.count

(* Upper bound of the bucket that contains the q-quantile observation:
   coarse (a factor of 2) but honest for log-scale latencies. *)
let hist_quantile h q =
  if h.count = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = int_of_float (Float.round (q *. float_of_int (h.count - 1))) in
    let rec scan i seen =
      if i >= Array.length h.buckets then Float.of_int max_int
      else begin
        let seen = seen + h.buckets.(i) in
        if seen > rank then Float.of_int (1 lsl (min 62 (i + 1)))
        else scan (i + 1) seen
      end
    in
    scan 0 0
  end

let snapshot_histogram h =
  (* Read counts before the sum: a concurrent [observe] bumps the
     bucket first, so [sum] can only run ahead of [count], never
     report observations the buckets have not seen. *)
  let buckets = Array.map Atomic.get h.h_counts in
  let count = Array.fold_left ( + ) 0 buckets in
  { buckets; count; sum = Atomic.get h.h_sum }

let by_name (a, _) (b, _) = compare (a : string) b

let snapshot () =
  let instruments = locked (fun () -> Hashtbl.fold (fun _ i acc -> i :: acc) registry []) in
  let counters, gauges, histograms =
    List.fold_left
      (fun (cs, gs, hs) -> function
        | Counter c -> ((c.c_name, Atomic.get c.c_value) :: cs, gs, hs)
        | Gauge g -> (cs, (g.g_name, Atomic.get g.g_value) :: gs, hs)
        | Histogram h -> (cs, gs, (h.h_name, snapshot_histogram h) :: hs))
      ([], [], []) instruments
  in
  { counters = List.sort by_name counters;
    gauges = List.sort by_name gauges;
    histograms = List.sort by_name histograms }

let find_counter snapshot name = List.assoc_opt name snapshot.counters

let find_histogram snapshot name = List.assoc_opt name snapshot.histograms

(* Zero every instrument, keeping registrations: benchmarks and tests
   reset between measured sections. *)
let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | Counter c -> Atomic.set c.c_value 0
          | Gauge g -> Atomic.set g.g_value 0.0
          | Histogram h ->
              Array.iter (fun b -> Atomic.set b 0) h.h_counts;
              Atomic.set h.h_sum 0)
        registry)
