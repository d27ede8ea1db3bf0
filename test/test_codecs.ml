(* One structural fuzzer over every document decoder.

   Each format contributes one valid document.  The property mutates it
   (truncation at a random byte, a random subtree replaced by a value
   of another type, a duplicated key, a number swapped for 1e999, 1e300
   or -0, a subtree nested 10k levels deep) and requires the decoder to
   answer [Ok] or [Error]: an exception fails the property. *)

module Json = Ftes_util.Json
module Problem = Ftes_model.Problem
module Problem_io = Ftes_model.Problem_io
module Archive = Ftes_pareto.Archive
module Frontier_io = Ftes_pareto.Frontier_io
module Certificate = Ftes_analyze.Certificate
module Certificate_io = Ftes_analyze.Certificate_io
module Bnb_certificate_io = Ftes_analyze.Bnb_certificate_io
module Manifest = Ftes_campaign.Manifest
module Checkpoint = Ftes_campaign.Checkpoint
module Request = Ftes_driver.Request
module Response = Ftes_driver.Response
module Delta = Ftes_whatif.Delta
module Config = Ftes_core.Config

let ok_exn label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label e

let ignore_result r = Result.map ignore r

let point prng problem i =
  { Archive.design = Helpers.random_design prng problem;
    cost = 10.0 +. float_of_int i;
    slack = 1.0 -. float_of_int i;
    margin = 0.5 }

(* (name, valid document, decoder): the decoders run with their
   context (problem, manifest, base resolver) fixed. *)
let formats =
  lazy
    (let fig1 = Ftes_cc.Fig_examples.fig1_problem () in
     let cc = Ftes_cc.Cruise_control.problem () in
     let prng = Ftes_util.Prng.create 7 in
     let archive = Archive.of_points (List.init 3 (point prng fig1)) in
     let bnb =
       (Ftes_bnb.Bnb.solve ~config:Config.default fig1).Ftes_bnb.Bnb.certificate
     in
     let manifest =
       Manifest.make ~policies:[ Config.Fixed_min ] ~apps:2 ~seed:5 ~shards:1
         ()
     in
     let checkpoint =
       let app_problem = Manifest.problem manifest ~cell:0 ~app:1 in
       { (Checkpoint.create ~manifest ~shard:0) with
         Checkpoint.complete = true;
         cells =
           [ { Checkpoint.key = Manifest.cell manifest 0;
               costs = [| None; Some 12.5 |];
               points = [ (1, point prng app_problem 0) ];
               elapsed_s = 0.25 } ] }
     in
     let node_add = Delta.Node_add (Problem.node cc 0) in
     let request =
       ok_exn "request"
         (Request.make ~id:"fuzz" ~kmax:3
            ~whatif:{ Request.base_id = None; delta = Delta.Deadline_scale 0.9 }
            Request.Optimize (`Problem fig1))
     in
     let response =
       { Response.id = "fuzz";
         seq = 4;
         verdict = Response.Feasible;
         payload = Json.Object [ ("feasible", Json.Bool true) ];
         error = None;
         telemetry =
           Some
             { Response.queue_wait_ns = 1;
               wall_ns = 2;
               sfp_hits = 3;
               sfp_misses = 4;
               eval_hits = 5;
               eval_misses = 6;
               cache_problems = 1;
               registry_hits = 0;
               registry_misses = 1;
               reuse = None } }
     in
     let quiet = ignore in
     [ ("problem", Problem_io.to_json fig1,
        fun j -> ignore_result (Problem_io.of_json ~on_warning:quiet j));
       ("frontier", Frontier_io.to_json archive,
        fun j ->
          ignore_result (Frontier_io.of_json ~on_warning:quiet ~problem:fig1 j));
       ("certificate",
        (* Infeasible, so the certificate carries witnesses. *)
        Certificate_io.to_json
          (Certificate.of_preflight
             (Ftes_analyze.Preflight.run
                (ok_exn "tight" (Delta.apply fig1 (Delta.Deadline_set 18.0))))),
        fun j -> ignore_result (Certificate_io.of_json ~on_warning:quiet j));
       ("bnb-certificate", Bnb_certificate_io.to_json bnb,
        fun j -> ignore_result (Bnb_certificate_io.of_json ~on_warning:quiet j));
       ("manifest", Manifest.to_json manifest,
        fun j -> ignore_result (Manifest.of_json j));
       ("checkpoint", Checkpoint.to_json checkpoint,
        fun j -> ignore_result (Checkpoint.of_json ~manifest j));
       ("request", Request.to_json request,
        fun j ->
          ignore_result
            (Request.of_json ~on_warning:quiet
               ~resolve_base:(fun _ -> Some fig1)
               j));
       ("response", Response.to_json response,
        fun j -> ignore_result (Response.of_json ~on_warning:quiet j));
       ("delta", Delta.to_json node_add, fun j -> ignore_result (Delta.of_json j))
     ])

(* Every format's pristine document decodes. *)
let test_pristine () =
  List.iter
    (fun (name, doc, decode) ->
      ok_exn name (decode doc);
      ok_exn (name ^ " (reparsed)")
        (Result.bind (Json.of_string (Json.to_string ~minify:true doc)) decode))
    (Lazy.force formats)

(* --- structural mutation --- *)

let rec size = function
  | Json.List items -> List.fold_left (fun n v -> n + size v) 1 items
  | Json.Object fields -> List.fold_left (fun n (_, v) -> n + size v) 1 fields
  | _ -> 1

(* Replace the [k]-th node in pre-order by [f node]. *)
let map_nth k f json =
  let i = ref (-1) in
  let rec go json =
    incr i;
    if !i = k then f json
    else
      match json with
      | Json.List items -> Json.List (List.map go items)
      | Json.Object fields ->
          Json.Object (List.map (fun (key, v) -> (key, go v)) fields)
      | leaf -> leaf
  in
  go json

let wrong_typed prng json =
  let candidates =
    List.filter
      (fun v ->
        match (v, json) with
        | Json.Null, Json.Null
        | Json.Bool _, Json.Bool _
        | Json.Number _, Json.Number _
        | Json.String _, Json.String _
        | Json.List _, Json.List _
        | Json.Object _, Json.Object _ -> false
        | _ -> true)
      [ Json.Null; Json.Bool true; Json.Number 1.5; Json.Number (-1.0);
        Json.String "x"; Json.List [ Json.Null ]; Json.Object [] ]
  in
  List.nth candidates (Ftes_util.Prng.int prng (List.length candidates))

(* A duplicate of one of the object's keys, placed first so that it is
   the one a lookup finds; objects without fields get a fresh one. *)
let duplicate_key prng = function
  | Json.Object ((_ :: _) as fields) ->
      let key, v = List.nth fields (Ftes_util.Prng.int prng (List.length fields)) in
      Json.Object ((key, wrong_typed prng v) :: fields)
  | json -> wrong_typed prng json

let marker = "@@fuzz@@"

let deep_nest = String.make 10_000 '[' ^ "0" ^ String.make 10_000 ']'

(* Render with the [k]-th node replaced by a literal the [Json.t] type
   cannot hold. *)
let splice k literal doc =
  let text =
    Json.to_string ~minify:true (map_nth k (fun _ -> Json.String marker) doc)
  in
  let quoted = "\"" ^ marker ^ "\"" in
  let m = String.length quoted in
  let rec matches_at i j = j = m || (text.[i + j] = quoted.[j] && matches_at i (j + 1)) in
  let rec find i = if matches_at i 0 then i else find (i + 1) in
  let at = find 0 in
  String.sub text 0 at ^ literal
  ^ String.sub text (at + m) (String.length text - at - m)

let mutate prng mutation doc =
  let k = Ftes_util.Prng.int prng (size doc) in
  match mutation with
  | 0 ->
      let text = Json.to_string ~minify:true doc in
      String.sub text 0 (Ftes_util.Prng.int prng (String.length text))
  | 1 -> Json.to_string ~minify:true (map_nth k (wrong_typed prng) doc)
  | 2 -> Json.to_string ~minify:true (map_nth k (duplicate_key prng) doc)
  | 3 -> splice k "1e999" doc
  | 4 -> splice k "1e300" doc
  | 5 -> splice k "-0" doc
  | _ -> splice k deep_nest doc

let n_mutations = 7

(* A line nested a million levels deep is refused at the nesting bound,
   not after recursing through the whole line, and the daemon goes on to
   serve the next line. *)
let test_deep_nesting_rejected () =
  let deep = String.make 1_000_000 '[' in
  Alcotest.(check (result reject string))
    "structured nesting error"
    (Error "JSON error at offset 512: nesting deeper than 512")
    (Result.map ignore (Json.of_string deep));
  let valid =
    Request.to_string
      (ok_exn "request"
         (Request.make ~id:"after-deep" Request.Analyze (`Example "fig1")))
  in
  match Ftes_driver.Daemon.run_lines ~telemetry:false [ deep; valid ] with
  | [ refused; served ] ->
      Alcotest.(check bool) "deep line refused" true
        (refused.Response.verdict = Response.Failed);
      Helpers.check_contains "deep line"
        (Option.value refused.Response.error ~default:"")
        "nesting deeper than 512";
      Alcotest.(check string) "next line served in order" "after-deep"
        served.Response.id;
      Alcotest.(check bool) "next line answered" true
        (served.Response.verdict = Response.Feasible)
  | responses ->
      Alcotest.failf "%d responses for 2 lines" (List.length responses)

let fuzz =
  QCheck.Test.make ~count:1000 ~name:"every decoder returns Ok or Error"
    QCheck.(triple (int_bound 8) (int_bound (n_mutations - 1)) (int_bound 1_000_000))
    (fun (format, mutation, seed) ->
      let formats = Lazy.force formats in
      let name, doc, decode = List.nth formats (format mod List.length formats) in
      let text = mutate (Ftes_util.Prng.create seed) mutation doc in
      match Json.of_string text with
      | Error _ -> true
      | Ok json -> (
          match decode json with
          | Ok () | Error _ -> true
          | exception e ->
              QCheck.Test.fail_reportf "%s, mutation %d: %s raised %s" name
                mutation (String.sub text 0 (min 200 (String.length text)))
                (Printexc.to_string e)))

let () =
  Alcotest.run "ftes_codecs"
    [ ( "fuzz",
        [ Alcotest.test_case "pristine documents decode" `Quick test_pristine;
          QCheck_alcotest.to_alcotest fuzz;
          Alcotest.test_case "over-deep nesting is refused" `Quick
            test_deep_nesting_rejected ] ) ]
