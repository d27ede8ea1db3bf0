module Metrics = Ftes_obs.Metrics
module Synthetic = Ftes_exp.Synthetic

let c_cells_done = Metrics.counter "campaign.cells_done"

let c_shards_done = Metrics.counter "campaign.shards_done"

let c_shards_resumed = Metrics.counter "campaign.shards_resumed"

type shard_state =
  | Complete of Checkpoint.t
  | Partial of Checkpoint.t
  | Missing
  | Corrupt of string

let classify ~manifest ~dir shard =
  if not (Sys.file_exists (Checkpoint.path ~dir shard)) then Missing
  else
    match Checkpoint.load ~manifest ~dir shard with
    | Ok c when c.Checkpoint.complete -> Complete c
    | Ok c -> Partial c
    | Error e -> Corrupt e

let scan ~manifest ~dir =
  Array.init manifest.Manifest.shards (classify ~manifest ~dir)

type shard_outcome = {
  checkpoint : Checkpoint.t;
  resumed : bool;
  fresh_cells : int;
}

let cell_result_of_run ~(run : Synthetic.cell_run) =
  {
    Checkpoint.key = run.Synthetic.key;
    costs = run.Synthetic.costs;
    points = run.Synthetic.points;
    elapsed_s = run.Synthetic.elapsed_s;
  }

let run_shard ?(on_cell = fun ~cell_index:_ ~n_cells:_ -> ()) ~manifest ~dir
    shard =
  let cells = Manifest.cells manifest in
  let n_cells = List.length cells in
  let start =
    match classify ~manifest ~dir shard with
    | Complete c -> `Skip c
    | Partial c ->
        (* A partial checkpoint can never hold every cell (completeness
           is stamped in the same write as the last cell), but guard
           anyway: dropping one cell guarantees every non-skipped shard
           computes at least one fresh cell, which is what keeps
           [cells_done >= shards_done] an invariant. *)
        let kept =
          if List.length c.Checkpoint.cells >= n_cells then
            List.filteri (fun i _ -> i < n_cells - 1) c.Checkpoint.cells
          else c.Checkpoint.cells
        in
        `Run { c with Checkpoint.cells = kept }
    | Missing | Corrupt _ -> `Run (Checkpoint.create ~manifest ~shard)
  in
  match start with
  | `Skip c -> Ok { checkpoint = c; resumed = false; fresh_cells = 0 }
  | `Run start -> (
      let resumed = start.Checkpoint.cells <> [] in
      let specs = Manifest.specs_for_shard manifest shard in
      let config =
        Ftes_core.Config.(default |> with_certify false)
      in
      let compute ckpt index key =
        let problems =
          List.map
            (fun (spec : Ftes_gen.Workload.app_spec) ->
              (spec.index, Manifest.problem manifest ~cell:index ~app:spec.index))
            specs
        in
        let run = Synthetic.run_cell ~config ~problems key in
        let cells' = ckpt.Checkpoint.cells @ [ cell_result_of_run ~run ] in
        let ckpt =
          { ckpt with Checkpoint.cells = cells';
            complete = List.length cells' = n_cells }
        in
        Checkpoint.save ~dir ckpt;
        Metrics.incr c_cells_done;
        on_cell ~cell_index:index ~n_cells;
        ckpt
      in
      match
        List.fold_left
          (fun (ckpt, index) key ->
            if index < List.length start.Checkpoint.cells then (ckpt, index + 1)
            else (compute ckpt index key, index + 1))
          (start, 0) cells
      with
      | ckpt, _ ->
          Metrics.incr c_shards_done;
          if resumed then Metrics.incr c_shards_resumed;
          Ok { checkpoint = ckpt; resumed; fresh_cells = n_cells - List.length start.Checkpoint.cells }
      | exception e ->
          Error
            (Printf.sprintf "shard %d: %s" shard (Printexc.to_string e)))

type summary = {
  shards : int;
  skipped : int;
  executed : int;
  resumed : int;
  failed : (int * string) list;
}

let run_local ?(on_cell = fun ~shard:_ ~cell_index:_ ~n_cells:_ -> ())
    ~manifest ~dir () =
  let shards = manifest.Manifest.shards in
  let skipped = ref 0 and executed = ref 0 and resumed = ref 0 in
  let failed = ref [] in
  for shard = 0 to shards - 1 do
    match run_shard ~on_cell:(fun ~cell_index ~n_cells -> on_cell ~shard ~cell_index ~n_cells) ~manifest ~dir shard with
    | Ok { fresh_cells = 0; _ } -> incr skipped
    | Ok outcome ->
        incr executed;
        if outcome.resumed then incr resumed
    | Error e -> failed := (shard, e) :: !failed
  done;
  {
    shards;
    skipped = !skipped;
    executed = !executed;
    resumed = !resumed;
    failed = List.rev !failed;
  }

(* The parent mirrors each worker's completion onto its own registry
   (the worker's counters die with its process): first the fresh
   cells, then the shard — so [cells_done >= shards_done] holds at
   every intermediate snapshot too. *)
let mirror_completion ~fresh_cells ~resumed =
  if fresh_cells > 0 then begin
    Metrics.add c_cells_done fresh_cells;
    Metrics.incr c_shards_done;
    if resumed then Metrics.incr c_shards_resumed
  end

let run_processes ?(jobs = 1) ?(on_progress = fun ~completed:_ ~total:_ ~eta_s:_ -> ())
    ~exe ~manifest ~dir () =
  let jobs = max 1 jobs in
  let n_cells = Manifest.n_cells manifest in
  let states = scan ~manifest ~dir in
  let total = Array.length states in
  let pending = ref [] in
  let skipped = ref 0 in
  Array.iteri
    (fun shard state ->
      match state with
      | Complete _ -> incr skipped
      | Partial c ->
          let prior = min (List.length c.Checkpoint.cells) (n_cells - 1) in
          pending := (shard, prior) :: !pending
      | Missing | Corrupt _ -> pending := (shard, 0) :: !pending)
    states;
  let pending = ref (List.rev !pending) in
  let started = Unix.gettimeofday () in
  let executed = ref 0 and resumed = ref 0 in
  let failed = ref [] in
  let running = Hashtbl.create 8 in
  let spawn (shard, prior_cells) =
    let argv =
      [| exe; "campaign-worker"; "--dir"; dir; "--shard"; string_of_int shard |]
    in
    let pid =
      Unix.create_process exe argv Unix.stdin Unix.stdout Unix.stderr
    in
    Hashtbl.replace running pid (shard, prior_cells)
  in
  let progress () =
    let completed = !skipped + !executed in
    let eta_s =
      if !executed = 0 || completed >= total then None
      else
        let elapsed = Unix.gettimeofday () -. started in
        Some (elapsed /. float_of_int !executed *. float_of_int (total - completed))
    in
    on_progress ~completed ~total ~eta_s
  in
  let reap () =
    match Unix.wait () with
    | pid, status -> (
        match Hashtbl.find_opt running pid with
        | None -> ()
        | Some (shard, prior_cells) -> (
            Hashtbl.remove running pid;
            match status with
            | Unix.WEXITED 0 -> (
                match classify ~manifest ~dir shard with
                | Complete _ ->
                    incr executed;
                    let was_resumed = prior_cells > 0 in
                    if was_resumed then incr resumed;
                    mirror_completion ~fresh_cells:(n_cells - prior_cells)
                      ~resumed:was_resumed;
                    progress ()
                | _ ->
                    failed :=
                      (shard, "worker exited 0 without a complete checkpoint")
                      :: !failed)
            | Unix.WEXITED 130 ->
                failed := (shard, "interrupted (exit 130)") :: !failed
            | Unix.WEXITED code ->
                failed := (shard, Printf.sprintf "worker exited %d" code) :: !failed
            | Unix.WSIGNALED s | Unix.WSTOPPED s ->
                failed := (shard, Printf.sprintf "worker killed by signal %d" s) :: !failed))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let rec drive () =
    while Hashtbl.length running < jobs && !pending <> [] do
      match !pending with
      | [] -> ()
      | next :: rest ->
          pending := rest;
          spawn next
    done;
    if Hashtbl.length running > 0 then begin
      reap ();
      drive ()
    end
  in
  progress ();
  drive ();
  {
    shards = total;
    skipped = !skipped;
    executed = !executed;
    resumed = !resumed;
    failed = List.rev !failed;
  }
