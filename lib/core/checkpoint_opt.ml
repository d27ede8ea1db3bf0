module Design = Ftes_model.Design
module Problem = Ftes_model.Problem
module Scheduler = Ftes_sched.Scheduler

let lone_worst_case ~t ~save ~mu ~kappa ~k =
  if kappa < 1 then invalid_arg "Checkpoint_opt: kappa must be >= 1";
  if t < 0.0 || save < 0.0 || mu < 0.0 then
    invalid_arg "Checkpoint_opt: negative time";
  if k < 0 then invalid_arg "Checkpoint_opt: negative k";
  let segments = float_of_int kappa in
  t +. ((segments -. 1.0) *. save)
  +. (float_of_int k *. ((t /. segments) +. mu))

(* The most checkpoints one process is split into. *)
let kappa_max = 20

let optimal_checkpoints ~t ~save ~k =
  if k = 0 then 1
  else begin
    (* W is convex in kappa; an exact scan over the small range is
       simpler than rounding the continuous optimum both ways. *)
    let best = ref 1 in
    for kappa = 2 to kappa_max do
      if
        lone_worst_case ~t ~save ~mu:0.0 ~kappa ~k
        < lone_worst_case ~t ~save ~mu:0.0 ~kappa:!best ~k -. 1e-12
      then best := kappa
    done;
    !best
  end

let optimize ?save_ms problem design =
  let mu = problem.Problem.app.Ftes_model.Application.recovery_overhead_ms in
  let save = Option.value ~default:(mu /. 2.0) save_ms in
  let n = Problem.n_processes problem in
  (* Start from no checkpointing (exactly the plain schedule) and only
     grow: the closed-form per-process optimum over-spends saves on a
     node whose slack is governed by the largest segment alone, so it is
     a poor seed for the coupled problem. *)
  let kappa = Array.make n 1 in
  let sl kappa =
    Scheduler.schedule_length
      ~slack:(Scheduler.Checkpointed { kappa; save_ms = save })
      problem design
  in
  (* The node slack charges the largest segment on the node: keep
     splitting that segment further while the schedule improves. *)
  let rec refine current =
    let candidate = Array.copy kappa in
    let improved = ref None in
    for proc = 0 to n - 1 do
      if kappa.(proc) < kappa_max then begin
        candidate.(proc) <- kappa.(proc) + 1;
        let v = sl candidate in
        (match !improved with
        | Some (_, best) when best <= v -> ()
        | Some _ | None -> if v < current -. 1e-9 then improved := Some (proc, v));
        candidate.(proc) <- kappa.(proc)
      end
    done;
    match !improved with
    | Some (proc, v) ->
        kappa.(proc) <- kappa.(proc) + 1;
        refine v
    | None -> current
  in
  let final = refine (sl kappa) in
  (kappa, final)
