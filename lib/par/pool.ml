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

let c_tasks = Ftes_obs.Metrics.counter "pool.tasks"

let c_busy_ns = Ftes_obs.Metrics.counter "pool.busy_ns"

let c_maps = Ftes_obs.Metrics.counter "pool.parallel_maps"

(* Self-scheduling: every worker, the caller included, claims the next
   index from one shared counter until none are left.  The first
   exception stops further claims and is re-raised once every worker
   has joined. *)
let run ~workers ~n exec =
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  let worker () =
    Domain.DLS.set inside_worker true;
    let t0 = Ftes_obs.Clock.now_ns () in
    Ftes_obs.Span.with_ ~name:"pool/worker" (fun () ->
        let rec claim () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n && Atomic.get failure = None then begin
            (try exec i
             with e ->
               let bt = Printexc.get_raw_backtrace () in
               ignore (Atomic.compare_and_set failure None (Some (e, bt))));
            claim ()
          end
        in
        claim ());
    Ftes_obs.Metrics.add c_busy_ns (max 0 (Ftes_obs.Clock.now_ns () - t0));
    Domain.DLS.set inside_worker false
  in
  let spawned = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join spawned;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* The ordered map: [List.map] when no parallelism is available, else
   the results are written by index and read back in input order. *)
let map ?(pool = sequential) f xs =
  let n = List.length xs in
  let workers = min pool.domains n in
  if workers <= 1 || Domain.DLS.get inside_worker then List.map f xs
  else begin
    Ftes_obs.Metrics.incr c_maps;
    Ftes_obs.Metrics.add c_tasks n;
    let tasks = Array.of_list xs in
    let results = Array.make n None in
    run ~workers ~n (fun i -> results.(i) <- Some (f tasks.(i)));
    Array.to_list results
    |> List.map (function
         | Some r -> r
         | None -> assert false (* [run] re-raises before we get here *))
  end

let map_seeded ?pool ~prng f xs =
  let seeded = List.map (fun x -> (Ftes_util.Prng.split prng, x)) xs in
  map ?pool (fun (stream, x) -> f stream x) seeded
