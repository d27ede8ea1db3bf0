(* What-if warm-start engine: delta algebra semantics, invalidation
   footprints, and the headline property — a warm [Design_strategy.rerun]
   is bit-identical to a cold run on the perturbed problem, for every
   delta class across every slack × bus policy. *)

module Json = Ftes_util.Json
module Prng = Ftes_util.Prng
module Problem = Ftes_model.Problem
module Application = Ftes_model.Application
module Design = Ftes_model.Design
module Config = Ftes_core.Config
module Design_strategy = Ftes_core.Design_strategy
module Redundancy_opt = Ftes_core.Redundancy_opt
module Delta = Ftes_whatif.Delta
module Reuse = Ftes_whatif.Reuse
module Request = Ftes_driver.Request
module Response = Ftes_driver.Response
module Daemon = Ftes_driver.Daemon
module Verify = Ftes_verify.Verify
module Whatif_rules = Ftes_verify.Whatif_rules
module Subject = Ftes_verify.Subject
module Report = Ftes_verify.Report

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let hex = Printf.sprintf "%h"

(* The cruise controller's base walk, shared by every delta class's
   warm rerun: a rerun leaves its base intact. *)
let cc_base =
  lazy
    (let cc = Ftes_cc.Cruise_control.problem () in
     (cc, Design_strategy.run_recorded ~config:Config.default cc))

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

(* --- bit-exact signatures ---
   Floats are rendered with %h (hex float literals) so two solutions
   compare equal iff their bits do; the signature covers every field
   the payload fingerprint derives from. *)

let solution_sig = function
  | None -> "none"
  | Some (s : Design_strategy.solution) ->
      let r = s.Design_strategy.result in
      let d = r.Redundancy_opt.design in
      String.concat "|"
        [ hex r.Redundancy_opt.cost;
          hex r.Redundancy_opt.schedule_length;
          hex r.Redundancy_opt.slack;
          hex r.Redundancy_opt.margin;
          hex s.Design_strategy.verdict.Ftes_sfp.Sfp.reliability_per_hour;
          hex s.Design_strategy.verdict.Ftes_sfp.Sfp.per_iteration_failure;
          string_of_int s.Design_strategy.explored;
          ints d.Design.members;
          ints d.Design.levels;
          ints d.Design.reexecs;
          ints d.Design.mapping ]

let step_sig (st : Design_strategy.step) =
  Printf.sprintf "%s:%s"
    (ints st.Design_strategy.step_members)
    (match st.Design_strategy.step_verdict with
    | `Schedulable c -> "ok@" ^ hex c
    | `Unschedulable -> "dead")

let trail_sig trail = String.concat ";" (List.map step_sig trail)

let reuse_sane name (r : Reuse.t) =
  Alcotest.(check bool)
    (name ^ ": reuse class known") true
    (List.mem r.Reuse.delta_class Delta.class_names);
  List.iter
    (fun (field, v) ->
      if v < 0 then Alcotest.failf "%s: reuse.%s negative (%d)" name field v)
    [ ("sfp_kept", r.Reuse.sfp_kept);
      ("sfp_dropped", r.Reuse.sfp_dropped);
      ("evals_kept", r.Reuse.evals_kept);
      ("evals_dropped", r.Reuse.evals_dropped);
      ("probes_kept", r.Reuse.probes_kept);
      ("probes_dropped", r.Reuse.probes_dropped) ];
  Alcotest.(check bool)
    (name ^ ": replayed prefix within trail")
    true
    (r.Reuse.steps_replayed <= r.Reuse.steps_total)

(* The property: rerun from a recorded base = cold run on the perturbed
   problem, bit for bit (solution, trail, explored).  [base], when
   given, is the base walk recorded beforehand. *)
let check_bit_identity ?base name config problem delta =
  let base =
    match base with
    | Some base -> base
    | None -> Design_strategy.run_recorded ~config problem
  in
  match Design_strategy.rerun ~from:base delta with
  | Error e -> Alcotest.failf "%s: generated delta rejected: %s" name e
  | Ok (warm, reuse) ->
      let perturbed = ok_exn (Delta.apply problem delta) in
      let config' =
        match Delta.kmax_override delta with
        | Some k -> Config.with_kmax k config
        | None -> config
      in
      let cold = Design_strategy.run_recorded ~config:config' perturbed in
      Alcotest.(check string)
        (name ^ ": solution bits")
        (solution_sig cold.Design_strategy.rec_solution)
        (solution_sig warm.Design_strategy.rec_solution);
      Alcotest.(check int)
        (name ^ ": explored")
        cold.Design_strategy.rec_explored warm.Design_strategy.rec_explored;
      Alcotest.(check string)
        (name ^ ": trail")
        (trail_sig cold.Design_strategy.rec_trail)
        (trail_sig warm.Design_strategy.rec_trail);
      Alcotest.(check string)
        (name ^ ": reuse tagged with the delta class")
        (Delta.class_name delta) reuse.Reuse.delta_class;
      reuse_sane name reuse

(* One alcotest case per delta class: every slack mode (including the
   randomized per-process and checkpointed ones) crossed with every bus
   policy, fresh deltas per cell — then the cruise controller, from its
   shared recorded base walk. *)
let test_class cls () =
  let prng = Prng.create (0xC0FFEE + Hashtbl.hash cls) in
  let problem = Helpers.small_problem ~n:5 ~lib:2 ~levels:2 (Hashtbl.hash cls) in
  let n = Problem.n_processes problem in
  List.iteri
    (fun si slack ->
      List.iter
        (fun (bus_name, bus) ->
          let config =
            Config.default |> Config.with_slack slack |> Config.with_bus bus
          in
          let delta = Helpers.delta_of_class prng problem cls in
          let name = Printf.sprintf "%s/slack%d/%s" cls si bus_name in
          check_bit_identity name config problem delta)
        Helpers.named_bus_policies)
    (Helpers.slack_policies prng n);
  let cc, base = Lazy.force cc_base in
  check_bit_identity ~base (cls ^ "/cc") Config.default cc
    (Helpers.delta_of_class prng cc cls)

(* Chained deltas: the recorded state returned by a rerun is itself a
   valid warm-start base (deltas compose). *)
let test_chained_rerun () =
  let prng = Prng.create 2026 in
  let problem = Helpers.small_problem 11 in
  let config = Config.default in
  let recorded = ref (Design_strategy.run_recorded ~config problem) in
  let current = ref problem in
  for step = 1 to 4 do
    let delta, perturbed = Helpers.perturbed_problem prng !current in
    match Design_strategy.rerun ~from:!recorded delta with
    | Error e ->
        Alcotest.failf "chain step %d (%s): rejected: %s" step
          (Delta.class_name delta) e
    | Ok (warm, reuse) ->
        let config' =
          match Delta.kmax_override delta with
          | Some k -> Config.with_kmax k config
          | None -> config
        in
        let cold = Design_strategy.run_recorded ~config:config' perturbed in
        Alcotest.(check string)
          (Printf.sprintf "chain step %d (%s): solution bits" step
             (Delta.class_name delta))
          (solution_sig cold.Design_strategy.rec_solution)
          (solution_sig warm.Design_strategy.rec_solution);
        reuse_sane (Printf.sprintf "chain step %d" step) reuse;
        (* Kmax_set leaves the instance untouched, so the chain keeps
           perturbing the same problem; every other class rebases. *)
        (match Delta.kmax_override delta with
        | Some _ -> ()
        | None -> current := perturbed);
        recorded := warm
  done

(* --- apply semantics --- *)

let deadline p = p.Problem.app.Application.deadline_ms
let period p = p.Problem.app.Application.period_ms
let gamma p = p.Problem.app.Application.gamma

let test_apply_globals () =
  let problem = Helpers.small_problem 3 in
  let d = deadline problem in
  let p' = ok_exn (Delta.apply problem (Delta.Deadline_scale 0.5)) in
  Alcotest.(check bool) "deadline scaled bit-exactly" true
    (Float.equal (deadline p') (d *. 0.5));
  Alcotest.(check bool) "period untouched by a deadline delta" true
    (Float.equal (period p') (period problem));
  let p'' = ok_exn (Delta.apply problem (Delta.Period_set (period problem *. 2.))) in
  Alcotest.(check bool) "period replaced" true
    (Float.equal (period p'') (period problem *. 2.));
  let g = gamma problem *. 0.9 in
  let p3 = ok_exn (Delta.apply problem (Delta.Gamma_set g)) in
  Alcotest.(check bool) "gamma replaced" true (Float.equal (gamma p3) g);
  (* Kmax_set does not touch the instance at all. *)
  let p4 = ok_exn (Delta.apply problem (Delta.Kmax_set 3)) in
  Alcotest.(check bool) "kmax-set leaves the problem untouched" true
    (p4 == problem);
  Alcotest.(check (option int)) "kmax override carried" (Some 3)
    (Delta.kmax_override (Delta.Kmax_set 3));
  Alcotest.(check (option int)) "no override for other classes" None
    (Delta.kmax_override (Delta.Deadline_scale 0.9))

let test_apply_tables () =
  let problem = Helpers.small_problem 4 in
  let p' = ok_exn (Delta.apply problem (Delta.Wcet_scale { node = 0; factor = 1.25 })) in
  let levels = Problem.levels problem 0 in
  for level = 1 to levels do
    for proc = 0 to Problem.n_processes problem - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "wcet(0,%d,%d) scaled" level proc)
        true
        (Float.equal
           (Problem.wcet p' ~node:0 ~level ~proc)
           (Problem.wcet problem ~node:0 ~level ~proc *. 1.25));
      Alcotest.(check bool)
        (Printf.sprintf "wcet(1,%d,%d) untouched" level proc)
        true
        (Float.equal
           (Problem.wcet p' ~node:1 ~level ~proc)
           (Problem.wcet problem ~node:1 ~level ~proc))
    done
  done;
  let cell = Problem.wcet problem ~node:1 ~level:1 ~proc:0 in
  let p'' =
    ok_exn
      (Delta.apply problem
         (Delta.Hversion_wcet_set
            { node = 1; level = 1; proc = 0; wcet_ms = cell *. 1.1 }))
  in
  Alcotest.(check bool) "single wcet cell replaced" true
    (Float.equal (Problem.wcet p'' ~node:1 ~level:1 ~proc:0) (cell *. 1.1));
  Alcotest.(check bool) "neighbouring cell untouched" true
    (Float.equal
       (Problem.wcet p'' ~node:1 ~level:1 ~proc:1)
       (Problem.wcet problem ~node:1 ~level:1 ~proc:1))

let test_apply_library_shape () =
  let problem = Helpers.small_problem 5 in
  let m = Problem.n_library problem in
  let src = Problem.node problem 0 in
  let clone =
    Ftes_model.Platform.node_type
      ~name:(src.Ftes_model.Platform.node_name ^ "-clone")
      ~versions:src.Ftes_model.Platform.versions
  in
  let p' = ok_exn (Delta.apply problem (Delta.Node_add clone)) in
  Alcotest.(check int) "node-add grows the library" (m + 1) (Problem.n_library p');
  Alcotest.(check string) "appended node carries its name"
    (src.Ftes_model.Platform.node_name ^ "-clone")
    (Problem.node p' m).Ftes_model.Platform.node_name;
  let p'' = ok_exn (Delta.apply problem (Delta.Node_remove 0)) in
  Alcotest.(check int) "node-remove shrinks the library" (m - 1)
    (Problem.n_library p'');
  Alcotest.(check string) "higher indices shift down"
    (Problem.node problem 1).Ftes_model.Platform.node_name
    (Problem.node p'' 0).Ftes_model.Platform.node_name

let is_error name = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected Error, got Ok" name

let test_apply_rejects () =
  let problem = Helpers.small_problem 6 in
  is_error "non-positive deadline" (Delta.apply problem (Delta.Deadline_set 0.));
  is_error "non-positive deadline scale"
    (Delta.apply problem (Delta.Deadline_scale (-1.)));
  is_error "gamma out of (0,1)" (Delta.apply problem (Delta.Gamma_set 1.0));
  is_error "node index out of range"
    (Delta.apply problem (Delta.Node_remove (Problem.n_library problem)));
  is_error "wcet-scale node out of range"
    (Delta.apply problem
       (Delta.Wcet_scale { node = Problem.n_library problem; factor = 1.1 }));
  is_error "pfail out of [0,1)"
    (Delta.apply problem
       (Delta.Hversion_pfail_set { node = 0; level = 1; proc = 0; pfail = 1.5 }));
  (* A cost edit that breaks the hardening monotonicity (cost must
     strictly increase with level) is caught by the checked constructor. *)
  let top = Problem.levels problem 0 in
  if top >= 2 then
    is_error "cost edit breaking level monotonicity"
      (Delta.apply problem
         (Delta.Hversion_cost_set
            { node = 0; level = 1;
              cost = Problem.cost problem ~node:0 ~level:top *. 2. }));
  (* Removing the last library node can never yield a valid instance. *)
  let solo = Helpers.small_problem ~lib:1 7 in
  is_error "removing the last node" (Delta.apply solo (Delta.Node_remove 0))

(* --- footprint classification --- *)

let test_footprint () =
  let problem = Helpers.small_problem 8 in
  let d = deadline problem in
  (* Deadline-only deltas keep evals with a slack remap to the new
     deadline; everything else stays clean. *)
  let fp = Delta.footprint problem (Delta.Deadline_scale 0.9) in
  (match fp.Delta.eval_policy with
  | `Remap_slack d' ->
      Alcotest.(check bool) "remap targets the perturbed deadline" true
        (Float.equal d' (d *. 0.9))
  | `Keep | `Drop -> Alcotest.fail "deadline delta must remap eval slack");
  Alcotest.(check bool) "deadline delta leaves tables clean" false
    (fp.Delta.tables_dirty ~node:0 ~level:1);
  Alcotest.(check (option int)) "identity node map" (Some 1) (fp.Delta.node_map 1);
  (* Globals baked into stored results drop the eval memo wholesale. *)
  let fp_kmax = Delta.footprint problem (Delta.Kmax_set 4) in
  (match fp_kmax.Delta.eval_policy with
  | `Drop -> ()
  | `Keep | `Remap_slack _ -> Alcotest.fail "kmax delta must drop evals");
  Alcotest.(check bool) "kmax delta drops probes" false fp_kmax.Delta.keep_probes;
  Alcotest.(check bool) "kmax delta keeps SFP tables clean" false
    (fp_kmax.Delta.pfail_dirty ~node:0 ~level:1);
  (* A WCET edit dirties exactly its node's table cells. *)
  let fp_w = Delta.footprint problem (Delta.Wcet_scale { node = 0; factor = 1.1 }) in
  Alcotest.(check bool) "edited node dirty" true
    (fp_w.Delta.tables_dirty ~node:0 ~level:1);
  Alcotest.(check bool) "other node clean" false
    (fp_w.Delta.tables_dirty ~node:1 ~level:1);
  Alcotest.(check bool) "wcet edit leaves pfail clean" false
    (fp_w.Delta.pfail_dirty ~node:0 ~level:1);
  (* A pfail edit dirties the reliability side only. *)
  let p = Problem.pfail problem ~node:1 ~level:1 ~proc:0 in
  let fp_p =
    Delta.footprint problem
      (Delta.Hversion_pfail_set { node = 1; level = 1; proc = 0; pfail = p })
  in
  Alcotest.(check bool) "pfail cell dirty" true
    (fp_p.Delta.pfail_dirty ~node:1 ~level:1);
  Alcotest.(check bool) "pfail edit leaves wcet/cost clean" false
    (fp_p.Delta.tables_dirty ~node:1 ~level:1);
  (* Library remaps. *)
  let fp_r = Delta.footprint problem (Delta.Node_remove 0) in
  Alcotest.(check (option int)) "removed node unmapped" None (fp_r.Delta.node_map 0);
  Alcotest.(check (option int)) "survivor shifts down" (Some 0)
    (fp_r.Delta.node_map 1)

let test_migration_stats () =
  let problem = Helpers.small_problem 9 in
  let config = Config.default in
  let base = Design_strategy.run_recorded ~config problem in
  let cache = base.Design_strategy.rec_cache in
  (* Deadline-only: everything survives (evals via the slack remap). *)
  let fp = Delta.footprint problem (Delta.Deadline_scale 0.9) in
  let _, mig = Redundancy_opt.migrate_cache ~base:problem ~footprint:fp cache in
  Alcotest.(check int) "deadline delta drops no SFP table" 0
    mig.Redundancy_opt.mig_sfp_dropped;
  Alcotest.(check int) "deadline delta drops no eval" 0
    mig.Redundancy_opt.mig_evals_dropped;
  Alcotest.(check bool) "a real walk populated the eval memo" true
    (mig.Redundancy_opt.mig_evals_kept > 0);
  (* A kmax change keeps the SFP layer but drops every stored result. *)
  let fp_kmax = Delta.footprint problem (Delta.Kmax_set 4) in
  let _, mig_kmax =
    Redundancy_opt.migrate_cache ~base:problem ~footprint:fp_kmax cache
  in
  Alcotest.(check int) "kmax delta drops no SFP table" 0
    mig_kmax.Redundancy_opt.mig_sfp_dropped;
  Alcotest.(check int) "kmax delta keeps no eval" 0
    mig_kmax.Redundancy_opt.mig_evals_kept;
  Alcotest.(check int) "kmax delta keeps no probe" 0
    mig_kmax.Redundancy_opt.mig_probes_kept;
  (* A WCET edit on node 0 keeps only entries that avoid node 0. *)
  let fp_w = Delta.footprint problem (Delta.Wcet_scale { node = 0; factor = 1.1 }) in
  let _, mig_w = Redundancy_opt.migrate_cache ~base:problem ~footprint:fp_w cache in
  Alcotest.(check bool) "wcet edit invalidates the edited node's entries" true
    (mig_w.Redundancy_opt.mig_sfp_dropped > 0
    || mig_w.Redundancy_opt.mig_evals_dropped > 0)

(* Walk outcomes never survive a migration, whatever the delta: the
   migrated cache holds no walk and keeps the source's capacity. *)
let test_migration_drops_walks () =
  let prng = Prng.create 77 in
  let problem = Helpers.small_problem 9 in
  let config = Config.default in
  let capped = Redundancy_opt.create_cache ~capacity:0 () in
  let cache =
    (Design_strategy.run_recorded ~config problem).Design_strategy.rec_cache
  in
  Alcotest.(check bool) "the base walk stored walk outcomes" true
    (Redundancy_opt.stored_walks cache > 0);
  List.iter
    (fun cls ->
      let delta = Helpers.delta_of_class prng problem cls in
      let footprint = Delta.footprint problem delta in
      List.iter
        (fun (label, source) ->
          let migrated, _ =
            Redundancy_opt.migrate_cache ~base:problem ~footprint source
          in
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s, %s source: walks held, capacity" cls label)
            (0, Redundancy_opt.walk_capacity source)
            ( Redundancy_opt.stored_walks migrated,
              Redundancy_opt.walk_capacity migrated ))
        [ ("populated", cache); ("capacity-0", capped) ])
    Delta.class_names

(* --- wire codec --- *)

let test_delta_json_roundtrip () =
  let prng = Prng.create 4242 in
  let problem = Helpers.small_problem 13 in
  List.iter
    (fun cls ->
      for _ = 1 to 5 do
        let delta = Helpers.delta_of_class prng problem cls in
        let bytes = Json.to_string ~minify:true (Delta.to_json delta) in
        let reparsed =
          ok_exn (Delta.of_json (ok_exn (Json.of_string bytes)))
        in
        Alcotest.(check string)
          (Printf.sprintf "%s: re-emitted bytes stable" cls)
          bytes
          (Json.to_string ~minify:true (Delta.to_json reparsed))
      done)
    Delta.class_names

let test_delta_json_rejects () =
  let parse s = Result.bind (Json.of_string s) Delta.of_json in
  is_error "unknown class" (parse {|{"class": "frobnicate", "factor": 2}|});
  is_error "missing class" (parse {|{"factor": 2}|});
  is_error "non-positive factor"
    (parse {|{"class": "deadline-scale", "factor": 0}|});
  is_error "negative node index"
    (parse {|{"class": "wcet-scale", "node": -1, "factor": 1.1}|});
  is_error "missing field" (parse {|{"class": "deadline-set"}|});
  is_error "pfail out of range"
    (parse
       {|{"class": "hversion-pfail-set", "node": 0, "level": 1, "proc": 0, "pfail": 1.5}|})

let test_reuse_json_roundtrip () =
  let r =
    { Reuse.delta_class = "wcet-scale";
      sfp_kept = 12; sfp_dropped = 3;
      evals_kept = 40; evals_dropped = 2;
      probes_kept = 0; probes_dropped = 7;
      steps_replayed = 2; steps_total = 3 }
  in
  let bytes = Json.to_string ~minify:true (Reuse.to_json r) in
  let decode text = ok_exn (Reuse.of_json (ok_exn (Json.of_string text))) in
  Alcotest.(check string) "reuse codec round-trips" bytes
    (Json.to_string ~minify:true (Reuse.to_json (decode bytes)));
  (* Blocks written before the pre-flight reuse fields were dropped
     still carry them; a reader ignores both. *)
  let older =
    {|{"class":"wcet-scale","sfp":{"kept":12,"dropped":3},"evals":{"kept":40,"dropped":2},"probes":{"kept":0,"dropped":7},"steps":{"replayed":2,"total":3},"preflight_reused":true,"witnesses_rechecked":1}|}
  in
  Alcotest.(check string) "older block with pre-flight fields decodes" bytes
    (Json.to_string ~minify:true (Reuse.to_json (decode older)))

(* --- generator sanity (Helpers.small_delta / perturbed_problem) --- *)

let test_generators_always_apply () =
  let prng = Prng.create 77 in
  let problem = Helpers.small_problem 14 in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 200 do
    (* perturbed_problem raises if a generated delta fails to apply. *)
    let delta, perturbed = Helpers.perturbed_problem prng problem in
    Hashtbl.replace seen (Delta.class_name delta) ();
    match delta with
    | Delta.Kmax_set _ ->
        Alcotest.(check bool) "kmax delta leaves problem untouched" true
          (perturbed == problem)
    | _ -> ()
  done;
  (* 200 draws over 13 classes: every class must have come up. *)
  List.iter
    (fun cls ->
      Alcotest.(check bool)
        (Printf.sprintf "generator covers class %s" cls)
        true (Hashtbl.mem seen cls))
    Delta.class_names

(* --- the whatif/* rules fire on corrupted streams --- *)

let envelopes responses =
  List.map (fun r -> ok_exn (Json.of_string (Response.to_line r))) responses

let run_rules stream =
  Verify.run ~rules:Whatif_rules.all
    (Subject.with_responses
       (Subject.of_problem (Ftes_cc.Fig_examples.fig1_problem ()))
       stream)

let set key value = function
  | Json.Object fields ->
      Json.Object
        (List.map (fun (k, v) -> if k = key then (k, value) else (k, v)) fields)
  | other -> other

let set_in_reuse key value json =
  match Json.member "telemetry" json with
  | Error _ -> json
  | Ok tel -> (
      match Json.member "whatif" tel with
      | Error _ -> json
      | Ok reuse -> set "telemetry" (set "whatif" (set key value reuse) tel) json)

let mutate_nth i f stream =
  List.mapi (fun j json -> if j = i then f json else json) stream

(* A one-shot warm request (no base_id): the daemon computes the base
   cold and replays the delta in the same request, so the single
   response carries a reuse block. *)
let whatif_stream =
  lazy
    (let caches = Daemon.create_caches () in
     envelopes
       (Daemon.run_lines ~caches
          (List.map Request.to_string
             [ ok_exn
                 (Request.make ~id:"w0"
                    ~whatif:
                      { Request.base_id = None;
                        delta = Delta.Deadline_scale 0.95 }
                    Request.Optimize (`Example "fig1")) ])))

let check_fires name rule stream =
  let report = run_rules stream in
  Alcotest.(check bool) (name ^ ": report rejects") false (Report.ok report);
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s fired" name rule)
    true
    (List.mem rule (Report.fired_rules report))

let test_rules_accept_clean_stream () =
  let stream = Lazy.force whatif_stream in
  (match Json.member "telemetry" (List.hd stream) with
  | Ok tel ->
      Alcotest.(check bool) "warm response carries a reuse block" true
        (Result.is_ok (Json.member "whatif" tel))
  | Error e -> Alcotest.failf "warm response without telemetry: %s" e);
  let report = run_rules stream in
  if not (Report.ok report) then
    Alcotest.failf "clean warm stream rejected:\n%s" (Report.to_text report)

let test_rule_mutations () =
  let stream = Lazy.force whatif_stream in
  check_fires "unknown delta class" "whatif/reuse"
    (mutate_nth 0 (set_in_reuse "class" (Json.String "frobnicate")) stream);
  check_fires "negative kept counter" "whatif/reuse"
    (mutate_nth 0
       (set_in_reuse "sfp"
          (Json.Object
             [ ("kept", Json.Number (-1.)); ("dropped", Json.Number 0.) ]))
       stream);
  check_fires "replayed prefix longer than trail" "whatif/reuse"
    (mutate_nth 0
       (set_in_reuse "steps"
          (Json.Object
             [ ("replayed", Json.Number 9.); ("total", Json.Number 1.) ]))
       stream);
  check_fires "undecodable reuse block" "whatif/reuse"
    (mutate_nth 0
       (fun json ->
         match Json.member "telemetry" json with
         | Error _ -> json
         | Ok tel -> set "telemetry" (set "whatif" (Json.Object []) tel) json)
       stream);
  check_fires "warm response with a non-optimize verdict" "whatif/verdict"
    (mutate_nth 0 (set "verdict" (Json.String "report")) stream)

let () =
  let classes =
    List.map
      (fun cls ->
        Alcotest.test_case ("bit-identity " ^ cls) `Slow (test_class cls))
      Delta.class_names
  in
  Alcotest.run "whatif"
    [ ("bit-identity", classes);
      ( "composition",
        [ Alcotest.test_case "chained reruns" `Slow test_chained_rerun ] );
      ( "apply",
        [ Alcotest.test_case "globals" `Quick test_apply_globals;
          Alcotest.test_case "tables" `Quick test_apply_tables;
          Alcotest.test_case "library shape" `Quick test_apply_library_shape;
          Alcotest.test_case "rejects" `Quick test_apply_rejects ] );
      ( "footprint",
        [ Alcotest.test_case "classifier" `Quick test_footprint;
          Alcotest.test_case "migration stats" `Quick test_migration_stats;
          Alcotest.test_case "migration drops walks" `Quick
            test_migration_drops_walks ] );
      ( "wire",
        [ Alcotest.test_case "delta round-trip" `Quick test_delta_json_roundtrip;
          Alcotest.test_case "delta rejects" `Quick test_delta_json_rejects;
          Alcotest.test_case "reuse round-trip" `Quick test_reuse_json_roundtrip ]
      );
      ( "generators",
        [ Alcotest.test_case "always apply" `Quick test_generators_always_apply ]
      );
      ( "rules",
        [ Alcotest.test_case "accept clean warm stream" `Quick
            test_rules_accept_clean_stream;
          Alcotest.test_case "fire on corrupted streams" `Quick
            test_rule_mutations ] ) ]
