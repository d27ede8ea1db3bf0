type t = { domains : int }

let default_domains () =
  match Sys.getenv_opt "FTES_DOMAINS" with
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> n
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let create ?domains () =
  let domains =
    match domains with Some d -> d | None -> default_domains ()
  in
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  { domains }

let sequential = { domains = 1 }

let domains t = t.domains

(* A map issued from inside a worker runs sequentially: nested spawns
   would oversubscribe the machine without adding any parallelism the
   outer map is not already exploiting. *)
let inside_worker = Domain.DLS.new_key (fun () -> false)

let in_worker () = Domain.DLS.get inside_worker

(* Fixed-capacity Chase-Lev-style deque over task indices.  All tasks
   are pushed before the workers start, so only [pop] (owner, bottom
   end) and [steal] (thieves, top end) run concurrently. *)
module Deque = struct
  type t = { tasks : int array; top : int Atomic.t; bottom : int Atomic.t }

  let of_tasks tasks =
    { tasks; top = Atomic.make 0; bottom = Atomic.make (Array.length tasks) }

  let pop d =
    let b = Atomic.get d.bottom - 1 in
    Atomic.set d.bottom b;
    let t = Atomic.get d.top in
    if b > t then Some d.tasks.(b)
    else if b = t then begin
      (* Last element: race against thieves for it. *)
      let won = Atomic.compare_and_set d.top t (t + 1) in
      Atomic.set d.bottom (t + 1);
      if won then Some d.tasks.(b) else None
    end
    else begin
      Atomic.set d.bottom t;
      None
    end

  type steal = Stolen of int | Empty | Retry

  let steal d =
    let t = Atomic.get d.top in
    let b = Atomic.get d.bottom in
    if t >= b then Empty
    else begin
      let x = d.tasks.(t) in
      if Atomic.compare_and_set d.top t (t + 1) then Stolen x else Retry
    end
end

let c_tasks = Ftes_obs.Metrics.counter "pool.tasks"

let c_steals = Ftes_obs.Metrics.counter "pool.steals"

let c_busy_ns = Ftes_obs.Metrics.counter "pool.busy_ns"

let c_maps = Ftes_obs.Metrics.counter "pool.parallel_maps"

let run_deques ~workers deques exec =
  let failure = Atomic.make None in
  let record_failure e bt =
    ignore (Atomic.compare_and_set failure None (Some (e, bt)))
  in
  let guarded_exec i =
    if Atomic.get failure = None then
      try exec i
      with e -> record_failure e (Printexc.get_raw_backtrace ())
  in
  let worker w () =
    Domain.DLS.set inside_worker true;
    let t0 = Ftes_obs.Clock.now_ns () in
    let stolen = ref 0 in
    let own = deques.(w) in
    let rec drain_own () =
      match Deque.pop own with
      | Some i ->
          guarded_exec i;
          drain_own ()
      | None -> ()
    in
    (* After the own deque is dry, sweep the other deques; stop only
       when a full sweep finds every deque empty (no task is ever added
       back, so emptiness is stable except for in-flight steals). *)
    let rec scavenge () =
      let progress = ref false and retry = ref false in
      for off = 1 to workers - 1 do
        match Deque.steal deques.((w + off) mod workers) with
        | Deque.Stolen i ->
            guarded_exec i;
            incr stolen;
            progress := true
        | Deque.Retry -> retry := true
        | Deque.Empty -> ()
      done;
      if !progress || !retry then begin
        if not !progress then Domain.cpu_relax ();
        scavenge ()
      end
    in
    Ftes_obs.Span.with_ ~name:"pool/worker" (fun () ->
        drain_own ();
        scavenge ());
    Ftes_obs.Metrics.add c_steals !stolen;
    Ftes_obs.Metrics.add c_busy_ns (max 0 (Ftes_obs.Clock.now_ns () - t0));
    Domain.DLS.set inside_worker false
  in
  let spawned =
    List.init (workers - 1) (fun i -> Domain.spawn (worker (i + 1)))
  in
  worker 0 ();
  List.iter Domain.join spawned;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* Block-distribute the indices: worker [w] owns the contiguous slice
   [w*n/workers, (w+1)*n/workers), which keeps owner pops cache-local
   and makes steals grab from the far end of another block. *)
let block_deques ~workers tasks =
  let n = Array.length tasks in
  Array.init workers (fun w ->
      let lo = w * n / workers and hi = (w + 1) * n / workers in
      Deque.of_tasks (Array.init (hi - lo) (fun i -> lo + i)))

(* Deal the indices round-robin by descending weight so every worker
   starts on one of the heaviest tasks; within a worker's deque the
   heavier tasks sit at the bottom end (popped first), so the tail of
   the run is made of cheap tasks — the stragglers that decide the
   wall-clock are the short ones. *)
let weighted_deques ~workers weights =
  let n = Array.length weights in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match compare weights.(b) weights.(a) with
      | 0 -> compare a b
      | c -> c)
    order;
  let lists = Array.make workers [] in
  Array.iteri (fun i task -> lists.(i mod workers) <- task :: lists.(i mod workers)) order;
  Array.map (fun tasks -> Deque.of_tasks (Array.of_list tasks)) lists

(* The ordered map behind [map] and [map_weighted]: [List.map] when no
   parallelism is available, else the task indices are spread over the
   workers by [deques] and the results read back in input order. *)
let ordered_map ~pool ~deques f xs =
  let n = List.length xs in
  let workers = min pool.domains n in
  if workers <= 1 || Domain.DLS.get inside_worker then List.map f xs
  else begin
    Ftes_obs.Metrics.incr c_maps;
    Ftes_obs.Metrics.add c_tasks n;
    let tasks = Array.of_list xs in
    let results = Array.make n None in
    run_deques ~workers (deques ~workers tasks) (fun i ->
        results.(i) <- Some (f tasks.(i)));
    Array.to_list results
    |> List.map (function
         | Some r -> r
         | None -> assert false (* run_deques re-raises before we get here *))
  end

let map ?(pool = sequential) f xs = ordered_map ~pool ~deques:block_deques f xs

(* Weights are taken before any parallelism starts, in input order, so
   the schedule hint can never feed back into the results. *)
let map_weighted ?(pool = sequential) ~weight f xs =
  ordered_map ~pool
    ~deques:(fun ~workers tasks ->
      weighted_deques ~workers (Array.map weight tasks))
    f xs

let map_seeded ?pool ~prng f xs =
  let seeded = List.map (fun x -> (Ftes_util.Prng.split prng, x)) xs in
  map ?pool (fun (stream, x) -> f stream x) seeded
