(* Hierarchical wall-clock spans with per-domain stacks.

   The disabled fast path is one atomic load and a branch: [state]
   folds both switches (trace sink installed / aggregation on) into a
   single word so every instrumentation site pays the same negligible
   cost when observability is off. *)

type config = { sink : Sink.t; aggregate : bool }

let off = { sink = Sink.null; aggregate = false }

let state = Atomic.make off

let enabled_of { sink; aggregate } = aggregate || not (Sink.is_null sink)

(* [enabled] mirrors [state] so the fast path reads one word instead
   of inspecting the configuration. *)
let enabled_flag = Atomic.make false

let set config =
  Atomic.set state config;
  Atomic.set enabled_flag (enabled_of config)

let configure ?(sink = Sink.null) ?(aggregate = false) () =
  set { sink; aggregate }

let disable () = set off

let enabled () = Atomic.get enabled_flag

type frame = { name : string; depth : int; start_ns : int; alloc0 : float }

(* One stack per domain: workers spawned by Ftes_par.Pool get fresh
   stacks, so their spans nest under their own roots and never race
   with the spawning domain's stack. *)
let stacks : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack_depth () = List.length !(Domain.DLS.get stacks)

(* Aggregated per-name totals feed the profiler: a counter pair
   (count, total ns), an allocation counter (bytes, rounded), and a
   log-scale latency histogram.  Instrument creation is memoized per
   span name to keep the enabled path off the registry mutex. *)
type aggregate = {
  a_count : Metrics.counter;
  a_ns : Metrics.counter;
  a_alloc : Metrics.counter;
  a_hist : Metrics.histogram;
}

(* Copy-on-write association so the hot path (every span finish in
   aggregate mode) is a lock-free scan of a short immutable list; the
   mutex only serializes first-use registration.  [Metrics.reset] zeros
   instruments in place, so cached handles never go stale. *)
let aggregates : (string * aggregate) list Atomic.t = Atomic.make []

let aggregates_mutex = Mutex.create ()

let span_prefix = "span."

let rec assoc_find name = function
  | [] -> None
  | (n, a) :: tl -> if String.equal n name then Some a else assoc_find name tl

let aggregate_for name =
  match assoc_find name (Atomic.get aggregates) with
  | Some a -> a
  | None ->
      Mutex.lock aggregates_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock aggregates_mutex)
        (fun () ->
          match assoc_find name (Atomic.get aggregates) with
          | Some a -> a
          | None ->
              let a =
                { a_count = Metrics.counter (span_prefix ^ name ^ ".count");
                  a_ns = Metrics.counter (span_prefix ^ name ^ ".ns");
                  a_alloc = Metrics.counter (span_prefix ^ name ^ ".alloc_b");
                  a_hist = Metrics.histogram (span_prefix ^ name ^ ".ns.hist") }
              in
              Atomic.set aggregates ((name, a) :: Atomic.get aggregates);
              a)

let finish config frame =
  let stack = Domain.DLS.get stacks in
  (match !stack with
  | top :: rest when top == frame -> stack := rest
  | _ ->
      (* Unbalanced pops cannot happen: with_ finishes the frame on
         both its return and its exception paths. *)
      assert false);
  let dur_ns = max 0 (Clock.now_ns () - frame.start_ns) in
  let alloc_b = Float.max 0.0 (Gc.allocated_bytes () -. frame.alloc0) in
  if config.aggregate then begin
    let a = aggregate_for frame.name in
    Metrics.incr a.a_count;
    Metrics.add a.a_ns dur_ns;
    Metrics.add a.a_alloc (int_of_float alloc_b);
    Metrics.observe a.a_hist dur_ns
  end;
  if not (Sink.is_null config.sink) then begin
    let parent =
      match !(Domain.DLS.get stacks) with
      | [] -> None
      | p :: _ -> Some p.name
    in
    Sink.emit config.sink
      { Sink.name = frame.name;
        domain = (Domain.self () :> int);
        depth = frame.depth;
        parent;
        start_ns = frame.start_ns;
        dur_ns;
        alloc_b }
  end

let with_ ~name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let config = Atomic.get state in
    let stack = Domain.DLS.get stacks in
    let frame =
      { name;
        depth = List.length !stack;
        start_ns = Clock.now_ns ();
        alloc0 = Gc.allocated_bytes () }
    in
    stack := frame :: !stack;
    (* Hand-rolled [Fun.protect]: the enabled path runs on every
       instrumented kernel call, and the match form spares the two
       closure allocations of [~finally]. *)
    match f () with
    | v ->
        finish config frame;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish config frame;
        Printexc.raise_with_backtrace e bt
  end
