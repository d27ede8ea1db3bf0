(* One structural fuzzer over every document decoder, and over the
   audits of the certificates they decode.

   Each format contributes one valid document.  The property mutates it
   (truncation at a random byte, a random subtree replaced by a value
   of another type, a duplicated key, a number swapped for 1e999, 1e300
   or -0, a subtree nested 10k levels deep, an integer swapped for an
   out-of-range index) and requires the decoder to answer [Ok] or
   [Error]: an exception fails the property.  A certificate that still
   decodes is then audited against the problem it was derived from, and
   the audit must answer with a report.

   The JSON kernel is checked byte for byte against its Printf
   reference (test/oracle), problem identity against the rendered
   document, and the daemon's stdin against hostile lines. *)

module Json = Ftes_util.Json
module Problem = Ftes_model.Problem
module Problem_io = Ftes_model.Problem_io
module Archive = Ftes_pareto.Archive
module Frontier_io = Ftes_pareto.Frontier_io
module Certificate_io = Ftes_analyze.Certificate_io
module Bnb_certificate_io = Ftes_analyze.Bnb_certificate_io
module Manifest = Ftes_campaign.Manifest
module Checkpoint = Ftes_campaign.Checkpoint
module Request = Ftes_driver.Request
module Response = Ftes_driver.Response
module Delta = Ftes_whatif.Delta
module Config = Ftes_core.Config
module Verify = Ftes_verify.Verify
module Subject = Ftes_verify.Subject
module Daemon = Ftes_driver.Daemon
module Prng = Ftes_util.Prng
module Reference = Ftes_oracle.Json_reference

let ok_exn label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label e

let ignore_result r = Result.map ignore r

let point prng problem i =
  { Archive.design = Helpers.random_design prng problem;
    cost = 10.0 +. float_of_int i;
    slack = 1.0 -. float_of_int i;
    margin = 0.5 }

let quiet = ignore

(* (name, valid document, decoder to an auditable subject): each
   certificate is audited against the problem it was derived from, the
   B&B one under the policies its search ran with. *)
let certificates =
  lazy
    (let fig1 = Ftes_cc.Fig_examples.fig1_problem () in
     (* The proven-infeasible instance, so the certificate carries
        witnesses. *)
     let tight =
       ok_exn "tight" (Problem_io.load "golden/infeasible-fig1.json")
     in
     let config = Config.default in
     let bnb = (Ftes_bnb.Bnb.solve ~config fig1).Ftes_bnb.Bnb.certificate in
     [ ("certificate",
        Certificate_io.to_json (Ftes_analyze.Preflight.run ~reexec:true tight),
        fun j ->
          Result.map
            (Subject.with_certificate (Subject.of_problem tight))
            (Certificate_io.of_json ~on_warning:quiet j));
       ("bnb-certificate", Bnb_certificate_io.to_json bnb,
        fun j ->
          Result.map
            (Subject.with_bnb_certificate
               { (Subject.of_problem fig1) with
                 Subject.slack = config.Config.slack;
                 bus = config.Config.bus })
            (Bnb_certificate_io.of_json ~on_warning:quiet j)) ])

(* (name, valid document, decoder): the decoders run with their
   context (problem, manifest, base resolver) fixed. *)
let formats =
  lazy
    (let fig1 = Ftes_cc.Fig_examples.fig1_problem () in
     let cc = Ftes_cc.Cruise_control.problem () in
     let prng = Ftes_util.Prng.create 7 in
     let archive = Archive.of_points (List.init 3 (point prng fig1)) in
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
     List.map
       (fun (name, doc, subject) ->
         (name, doc, fun j -> ignore_result (subject j)))
       (Lazy.force certificates)
     @ [ ("problem", Problem_io.to_json fig1,
          fun j -> ignore_result (Problem_io.of_json ~on_warning:quiet j));
         ("frontier", Frontier_io.to_json archive,
          fun j ->
            ignore_result
              (Frontier_io.of_json ~on_warning:quiet ~problem:fig1 j));
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
         ("delta", Delta.to_json node_add,
          fun j -> ignore_result (Delta.of_json j))
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

(* Pre-order positions of the integer-valued numbers: where indices,
   counts and re-execution caps live. *)
let integer_leaves doc =
  let i = ref (-1) and acc = ref [] in
  let rec go json =
    incr i;
    match json with
    | Json.Number x when Float.is_integer x -> acc := !i :: !acc
    | Json.List items -> List.iter go items
    | Json.Object fields -> List.iter (fun (_, v) -> go v) fields
    | _ -> ()
  in
  go doc;
  Array.of_list (List.rev !acc)

(* One integer swapped for an index no problem here has (or a negative
   one): every decoded index must be range-checked before it is used. *)
let out_of_range_index prng doc =
  let leaves = integer_leaves doc in
  let k = leaves.(Ftes_util.Prng.int prng (Array.length leaves)) in
  let index = if Ftes_util.Prng.bool prng then 999 else -1 in
  Json.to_string ~minify:true (map_nth k (fun _ -> Json.int index) doc)

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
  | 6 -> splice k deep_nest doc
  | _ -> out_of_range_index prng doc

let n_mutations = 8

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

(* A case lands an out-of-range index on one of the three witness path
   entries among the pre-flight certificate's 60 integer leaves about
   once in 320; 3000 cases miss that class with probability ~1e-4. *)
let audit_fuzz =
  QCheck.Test.make ~count:3000
    ~name:"every decoded certificate's audit returns a report"
    QCheck.(
      triple (int_bound 1) (int_bound (n_mutations - 1)) (int_bound 1_000_000))
    (fun (format, mutation, seed) ->
      let name, doc, subject = List.nth (Lazy.force certificates) format in
      let text = mutate (Ftes_util.Prng.create seed) mutation doc in
      match Result.bind (Json.of_string text) subject with
      | Error _ -> true
      | Ok subject -> (
          match Verify.run subject with
          | _report -> true
          | exception e ->
              QCheck.Test.fail_reportf "%s, mutation %d: audit of %s raised %s"
                name mutation (String.sub text 0 (min 200 (String.length text)))
                (Printexc.to_string e)))

(* --- JSON kernel: byte-identical to the Printf reference --- *)

let edge_floats =
  [ 0.0; -0.0; 0.1; -0.1; 1.0; -1.0; 1e15 -. 1.0; 1e15; -1e15;
    Float.pred 1e15; Float.succ 1e15; 1e14 +. 0.5; 999999999999999.0;
    -999999999999999.0; 2. ** 53.; -.(2. ** 53.); (2. ** 53.) +. 2.0;
    5e-324; -5e-324; 1e-310; 2.2250738585072009e-308; Float.min_float;
    max_float; -.max_float; 1e-7; 0.30000000000000004; 4503599627370495.5;
    1e300; 123.456 ]

let random_float prng =
  match Prng.int prng 5 with
  | 0 -> List.nth edge_floats (Prng.int prng (List.length edge_floats))
  | 1 -> float_of_int (Prng.int_in prng (-1_000_000) 1_000_000)
  | 2 ->
      (* Integers on both sides of the 1e15 switch to [%.17g]. *)
      Float.of_int (Prng.int_in prng 0 (1 lsl 52))
      *. if Prng.bool prng then 1.0 else 1000.0
  | 3 ->
      let x = Int64.float_of_bits (Prng.bits64 prng) in
      if Float.is_finite x then x else 0.5
  | _ -> Prng.float_in prng (-1e6) 1e6 /. 1000.0

(* Bytes from the whole range, control characters and the two escaped
   printables over-represented. *)
let random_string prng =
  String.init (Prng.int prng 12) (fun _ ->
      match Prng.int prng 4 with
      | 0 -> Char.chr (Prng.int prng 0x20)
      | 1 -> if Prng.bool prng then '"' else '\\'
      | 2 -> Char.chr (Prng.int prng 256)
      | _ -> Char.chr (0x20 + Prng.int prng 0x5f))

let rec random_doc prng depth =
  match Prng.int prng (if depth >= 4 then 4 else 6) with
  | 0 -> Json.Null
  | 1 -> Json.Bool (Prng.bool prng)
  | 2 -> Json.Number (random_float prng)
  | 3 -> Json.String (random_string prng)
  | 4 ->
      Json.List
        (List.init (Prng.int prng 5) (fun _ -> random_doc prng (depth + 1)))
  | _ ->
      Json.Object
        (List.init (Prng.int prng 5) (fun _ ->
             (random_string prng, random_doc prng (depth + 1))))

(* Same verdict, same error message and offset, and values that render
   to the same bytes (the renderer tells [-0.0] from [0.0]). *)
let same_parse text =
  match (Json.of_string text, Reference.of_string text) with
  | Ok a, Ok b -> Reference.to_string a = Reference.to_string b
  | Error a, Error b -> a = b
  | Ok _, Error _ | Error _, Ok _ -> false

let check_same_parse text =
  if not (same_parse text) then
    Alcotest.failf "kernel and reference parse %S differently" text

(* A byte a parser could trip over, dropped at a random offset. *)
let tricky_bytes = "\"\\u0-+eE.,:[]{} \000\255\n9"

let prop_kernel_identity =
  QCheck.Test.make ~count:2000
    ~name:"JSON kernel renders, parses and fingerprints like its reference"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let prng = Prng.create seed in
      let doc = random_doc prng 0 in
      let minified = Json.to_string ~minify:true doc in
      let pretty = Json.to_string doc in
      let cut = Prng.int prng (String.length minified + 1) in
      let flipped = Bytes.of_string minified in
      if Bytes.length flipped > 0 then
        Bytes.set flipped (Prng.int prng (Bytes.length flipped))
          tricky_bytes.[Prng.int prng (String.length tricky_bytes)];
      let texts =
        [ minified; pretty; String.sub minified 0 cut;
          Bytes.to_string flipped ]
      in
      minified = Reference.to_string ~minify:true doc
      && pretty = Reference.to_string doc
      && List.for_all same_parse texts
      && List.for_all
           (fun t -> Ftes_util.Fingerprint.of_string t = Reference.fingerprint t)
           texts)

let test_kernel_edges () =
  List.iter
    (fun x ->
      let doc = Json.List [ Json.Number x; Json.Number (-.x) ] in
      Alcotest.(check string)
        (Printf.sprintf "render %h" x)
        (Reference.to_string ~minify:true doc)
        (Json.to_string ~minify:true doc);
      check_same_parse (Json.to_string ~minify:true doc))
    edge_floats;
  let every_byte = String.init 128 Char.chr in
  Alcotest.(check string) "every control character and escape"
    (Reference.to_string (Json.String every_byte))
    (Json.to_string (Json.String every_byte));
  check_same_parse (Json.to_string (Json.String every_byte));
  List.iter check_same_parse
    [ (* integer texts with a sign or leading zeros *)
      "0"; "-0"; "-00"; "007"; "-007"; "+5"; "1+2"; "-"; "--1"; "-a";
      "999999999999999"; "-999999999999999"; "0000000000000001";
      "1234567890123456"; "9007199254740993"; "12345678901234567890123";
      "-99999999999999999999"; "18446744073709551617"; "9223372036854775809";
      "[-0,0,-0.0]"; "1e5"; "1E-5";
      "0."; ".5"; "1_000"; "1e999"; "-1e999";
      (* escapes, complete and cut short *)
      {|"\u0000\u001f\n\t\/\b\f\"\\"|}; {|"A"|}; {|"é"|};
      {|"\u12"|}; {|"\uzzzz"|}; {|"\x"|}; {|"abc|}; {|"abc\|}; {|"a\u00|};
      {|"plain"|}; {|["a","b\n",""]|}; {|{"k\"":1}|}; "\"nul\000\255\"" ]

(* --- problem identity: equal documents, decided without rendering --- *)

let decode_problem json =
  ok_exn "problem" (Problem_io.of_json ~on_warning:quiet json)

let update key f = function
  | Json.Object fields ->
      Json.Object
        (List.map (fun (k, v) -> if k = key then (k, f v) else (k, v)) fields)
  | other -> other

let update_nth i f = function
  | Json.List items ->
      Json.List (List.mapi (fun j v -> if j = i then f v else v) items)
  | other -> other

let last_index = function Json.List items -> List.length items - 1 | _ -> 0

let set v _ = v

(* (label, a, b, the expected verdict when the edit decides it). *)
let identity_pairs prng =
  let a =
    Helpers.synthetic_problem ~seed:(Prng.int prng 1_000_000)
      ~n:(3 + Prng.int prng 10) ()
  in
  let doc = Problem_io.to_json a in
  let edit f = decode_problem (f doc) in
  let app f = update "application" f in
  let node = Prng.int prng (Problem.n_library a) in
  let proc = Prng.int prng (Problem.n_processes a) in
  let n_edges = Ftes_model.Task_graph.n_edges (Problem.graph a) in
  (* The three places a zero may sit: a top-level pfail (which keeps
     pfail non-increasing in the level), a transmission time and the
     recovery overhead. *)
  let zero_sites =
    [ ("pfail",
       fun z ->
         update "library"
           (update_nth node (fun nt ->
                update "versions"
                  (fun vs ->
                    update_nth (last_index vs)
                      (update "pfail" (update_nth proc (set (Json.Number z))))
                      vs)
                  nt)));
      ("recovery overhead",
       fun z -> app (update "recovery_overhead_ms" (set (Json.Number z)))) ]
    @
    if n_edges = 0 then []
    else
      let edge = Prng.int prng n_edges in
      [ ("transmission",
         fun z ->
           app
             (update "edges"
                (update_nth edge
                   (update "transmission_ms" (set (Json.Number z)))))) ]
  in
  let deltas =
    List.map
      (fun cls ->
        let d = Helpers.delta_of_class prng a cls in
        (cls, a, ok_exn cls (Delta.apply a d), None))
      Delta.class_names
  in
  let rename = function Json.String s -> Json.String (s ^ "'") | v -> v in
  let reverse = function Json.List items -> Json.List (List.rev items) | v -> v in
  [ ("itself", a, a, Some true);
    ("decoded copy", a, edit Fun.id, Some true);
    ("renamed process", a,
     edit (app (update "processes" (update_nth proc rename))), Some false);
    ("renamed node", a,
     edit (update "library" (update_nth node (update "name" rename))),
     Some false);
    ("reordered edges", a, edit (app (update "edges" reverse)),
     Some (n_edges < 2)) ]
  @ deltas
  @ List.concat_map
      (fun (site, at) ->
        let plus = edit (at 0.0) and minus = edit (at (-0.0)) in
        [ (site ^ ": 0 vs -0", plus, minus, Some false);
          (site ^ ": -0 vs -0", minus, edit (at (-0.0)), Some true);
          (site ^ ": 0 vs 0", plus, edit (at 0.0), Some true) ])
      zero_sites

let prop_problem_identity =
  QCheck.Test.make ~count:200
    ~name:"Problem_io.equal is equality of minified documents; hash agrees"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      List.for_all
        (fun (label, a, b, expected) ->
          let eq = Problem_io.equal a b in
          let same_doc =
            Reference.canonical_key a = Reference.canonical_key b
          in
          if eq <> same_doc then
            QCheck.Test.fail_reportf "%s: equal says %b, documents %b" label
              eq same_doc;
          (match expected with
          | Some e when e <> eq ->
              QCheck.Test.fail_reportf "%s: equal says %b, expected %b" label
                eq e
          | _ -> ());
          Problem_io.equal b a = eq
          && ((not eq) || Problem_io.hash a = Problem_io.hash b))
        (identity_pairs (Prng.create seed)))

(* --- the daemon's stdin under hostile lines --- *)

(* An unknown command keeps every mutation an error, whatever the
   mutation leaves of the rest of the request. *)
let fuzz_bases =
  lazy
    (let inline_cc =
       Request.to_string
         (ok_exn "request"
            (Request.make ~id:"fuzz-cc" Request.Optimize
               (`Problem (Ftes_cc.Cruise_control.problem ()))))
     in
     let frobnicate line =
       let key = {|"command":"optimize"|} in
       let k = String.length key in
       let rec find i =
         if String.sub line i k = key then i else find (i + 1)
       in
       let at = find 0 in
       String.sub line 0 at ^ {|"command":"frobnicate"|}
       ^ String.sub line (at + k) (String.length line - at - k)
     in
     [| {|{"schema_version":1,"id":"fuzz-small","command":"frobnicate","example":"fig1"}|};
        frobnicate inline_cc |])

let max_line = 2 * 1024 * 1024

(* [line] with one to four bytes drawn by [pick] inserted at random
   offsets. *)
let insert_bytes prng line pick =
  let n = String.length line in
  let cuts = List.init (1 + Prng.int prng 4) (fun _ -> Prng.int prng n) in
  let b = Buffer.create (n + 4) in
  String.iteri
    (fun i c ->
      if List.mem i cuts then Buffer.add_char b (pick ());
      Buffer.add_char b c)
    line;
  Buffer.contents b

let hostile_line prng =
  let bases = Lazy.force fuzz_bases in
  let line = bases.(Prng.int prng (Array.length bases)) in
  let prefix () = String.sub line 0 (Prng.int prng (String.length line + 1)) in
  match Prng.int prng 7 with
  | 0 ->
      let depth = 1 + Prng.int prng 200_000 in
      String.make depth (if Prng.bool prng then '[' else '{') ^ line
  | 1 ->
      let size = Prng.int prng (max_line - 200) in
      let pad =
        match Prng.int prng 3 with
        | 0 -> "\"" ^ String.make size 'x' ^ "\""
        | 1 -> "[" ^ String.concat "," (List.init (size / 2) (fun _ -> "1")) ^ "]"
        | _ -> String.make (max 1 size) '7'
      in
      {|{"schema_version":1,"id":"fuzz-huge","command":"frobnicate","pad":|}
      ^ pad ^ "}"
  | 2 -> prefix ()
  | 3 -> insert_bytes prng line (fun () -> '\000')
  | 4 -> insert_bytes prng line (fun () -> Char.chr (0x80 + Prng.int prng 0x80))
  | 5 -> prefix () ^ "\"unterminated"
  | _ ->
      prefix ()
      ^ [| "\"esc\\"; "\"esc\\u00"; "\"esc\\u" |].(Prng.int prng 3)

(* What [Daemon] may answer as the id: the reference parser's reading
   of the line's top-level "id", or nothing. *)
let best_effort_id line =
  match Reference.of_string line with
  | Ok json -> (
      match Json.field "id" Json.to_string_value json with
      | Ok id -> id
      | Error _ -> "")
  | Error _ -> ""

let prop_daemon_stdin =
  QCheck.Test.make ~count:150
    ~name:"hostile stdin lines: one error per line, in order, in bounded time"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let prng = Prng.create seed in
      let lines = List.init (1 + Prng.int prng 4) (fun _ -> hostile_line prng) in
      let started = Unix.gettimeofday () in
      let responses = Daemon.run_lines ~telemetry:false lines in
      let elapsed = Unix.gettimeofday () -. started in
      if elapsed > 10.0 then
        QCheck.Test.fail_reportf "%d lines took %.1f s" (List.length lines)
          elapsed;
      List.length responses = List.length lines
      && List.for_all2
           (fun (i, line) (r : Response.t) ->
             let expected = best_effort_id line in
             if r.Response.seq <> i
                || r.Response.verdict <> Response.Failed
                || r.Response.error = None
                || r.Response.id <> expected
             then
               QCheck.Test.fail_reportf
                 "line %d (%d bytes, %S...): seq %d, verdict %s, id %S \
                  (expected %S)"
                 i (String.length line)
                 (String.sub line 0 (min 80 (String.length line)))
                 r.Response.seq
                 (Response.verdict_name r.Response.verdict)
                 r.Response.id expected;
             true)
           (List.mapi (fun i l -> (i, l)) lines)
           responses)

(* [Daemon.serve] reads no line past [Daemon.max_line_bytes]: an
   over-cap line between two good requests is answered in its place by
   one error naming the cap, in time linear in its bytes, and the next
   request is served.  A line of exactly the cap is still parsed. *)
let padded_request ~id bytes =
  let head =
    {|{"schema_version":1,"id":"|} ^ id
    ^ {|","command":"analyze","example":"fig1","pad":"|}
  in
  let tail = {|"}|} in
  head
  ^ String.make (bytes - String.length head - String.length tail) 'x'
  ^ tail

let serve_file lines ~max_batch =
  let input = Filename.temp_file "ftes-serve-in" ".jsonl" in
  let output = Filename.temp_file "ftes-serve-out" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove input;
      Sys.remove output)
    (fun () ->
      Out_channel.with_open_bin input (fun oc ->
          List.iter
            (fun line ->
              output_string oc line;
              output_char oc '\n')
            lines);
      let stats =
        In_channel.with_open_bin input (fun ic ->
            Out_channel.with_open_bin output (fun oc ->
                Daemon.serve ~max_batch ic oc))
      in
      ( stats,
        List.map
          (fun line -> ok_exn "response" (Response.of_string line))
          (In_channel.with_open_bin output In_channel.input_lines) ))

let prop_daemon_line_cap =
  QCheck.Test.make ~count:4
    ~name:"an over-cap stdin line is answered in place, the next served"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let prng = Prng.create seed in
      let at_cap = Prng.int prng 4 = 0 in
      let bytes =
        Daemon.max_line_bytes
        + if at_cap then 0 else 1 + Prng.int prng (1 lsl 20)
      in
      let good id =
        Request.to_string
          (ok_exn "request"
             (Request.make ~id Request.Analyze (`Example "fig1")))
      in
      let lines =
        [ good "before"; padded_request ~id:"padded" bytes; good "after" ]
      in
      let started = Unix.gettimeofday () in
      let stats, responses =
        serve_file lines ~max_batch:(1 + Prng.int prng 3)
      in
      let elapsed = Unix.gettimeofday () -. started in
      if elapsed > 10.0 then
        QCheck.Test.fail_reportf "%d bytes took %.1f s" bytes elapsed;
      let answer (r : Response.t) =
        ( r.Response.seq,
          r.Response.id,
          Response.verdict_name r.Response.verdict,
          r.Response.error )
      in
      let middle =
        if at_cap then (1, "padded", "feasible", None)
        else
          ( 1,
            "",
            "error",
            Some
              (Printf.sprintf "request line exceeds %d bytes"
                 Daemon.max_line_bytes) )
      in
      let want =
        [ (0, "before", "feasible", None);
          middle;
          (2, "after", "feasible", None) ]
      in
      if List.map answer responses <> want then
        QCheck.Test.fail_reportf "%d-byte line: answers %s" bytes
          (String.concat "; "
             (List.map
                (fun (seq, id, verdict, _) ->
                  Printf.sprintf "%d %S %s" seq id verdict)
                (List.map answer responses)));
      stats.Daemon.requests = 3
      && stats.Daemon.failed = if at_cap then 0 else 1)

let () =
  Alcotest.run "ftes_codecs"
    [ ( "fuzz",
        [ Alcotest.test_case "pristine documents decode" `Quick test_pristine;
          QCheck_alcotest.to_alcotest fuzz;
          QCheck_alcotest.to_alcotest audit_fuzz;
          Alcotest.test_case "over-deep nesting is refused" `Quick
            test_deep_nesting_rejected;
          QCheck_alcotest.to_alcotest prop_daemon_stdin;
          QCheck_alcotest.to_alcotest prop_daemon_line_cap ] );
      (* Group labels stay within the four letters of "fuzz": Alcotest
         pads every label to the longest, and a wider column truncates
         the printed names of the cases above. *)
      ( "json",
        [ Alcotest.test_case "edge numbers, escapes and integer texts" `Quick
            test_kernel_edges;
          QCheck_alcotest.to_alcotest prop_kernel_identity;
          QCheck_alcotest.to_alcotest prop_problem_identity ] ) ]
