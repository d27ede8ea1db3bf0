(* Unit and property tests for Ftes_util. *)

module Prng = Ftes_util.Prng
module Rounding = Ftes_util.Rounding
module Symmetric = Ftes_util.Symmetric
module Stats = Ftes_util.Stats
module Text_table = Ftes_util.Text_table
module Ascii_chart = Ftes_util.Ascii_chart
module Csv = Ftes_util.Csv

let check_float = Alcotest.(check (float 1e-12))
let check_close eps = Alcotest.(check (float eps))

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create 1 and b = Prng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Prng.bits64 a <> Prng.bits64 b)

let test_prng_int_bounds () =
  let t = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int t 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done

let test_prng_int_in_bounds () =
  let t = Prng.create 4 in
  for _ = 1 to 1000 do
    let v = Prng.int_in t (-3) 5 in
    Alcotest.(check bool) "in [-3,5]" true (v >= -3 && v <= 5)
  done

let test_prng_int_invalid () =
  let t = Prng.create 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0));
  Alcotest.check_raises "empty range"
    (Invalid_argument "Prng.int_in: empty range") (fun () ->
      ignore (Prng.int_in t 2 1))

let test_prng_float_bounds () =
  let t = Prng.create 6 in
  for _ = 1 to 1000 do
    let v = Prng.float t 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_prng_float_in_bounds () =
  let t = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.float_in t 1.0 2.0 in
    Alcotest.(check bool) "in [1,2)" true (v >= 1.0 && v < 2.0)
  done

let test_prng_int_covers_range () =
  let t = Prng.create 8 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Prng.int t 5) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_prng_bool_both () =
  let t = Prng.create 9 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Prng.bool t then incr trues
  done;
  Alcotest.(check bool) "roughly fair" true (!trues > 400 && !trues < 600)

let test_prng_chance_extremes () =
  let t = Prng.create 10 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Prng.chance t 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always" true (Prng.chance t 1.0)
  done

let test_prng_shuffle_permutation () =
  let t = Prng.create 11 in
  let a = Array.init 20 Fun.id in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

let test_prng_choice () =
  let t = Prng.create 12 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Prng.choice t a in
    Alcotest.(check bool) "member" true (Array.mem v a)
  done;
  Alcotest.check_raises "empty array"
    (Invalid_argument "Prng.choice: empty array") (fun () ->
      ignore (Prng.choice t [||]))

let test_prng_exponential () =
  let t = Prng.create 13 in
  let samples = List.init 20_000 (fun _ -> Prng.exponential t 2.0) in
  List.iter
    (fun v -> Alcotest.(check bool) "positive" true (v >= 0.0))
    samples;
  (* mean of Exp(2) is 0.5 *)
  check_close 0.02 "mean ~ 1/lambda" 0.5 (Stats.mean samples)

let test_prng_split_independent () =
  let t = Prng.create 14 in
  let s = Prng.split t in
  Alcotest.(check bool) "split differs from parent continuation" true
    (Prng.bits64 s <> Prng.bits64 t)

let test_prng_copy () =
  let t = Prng.create 15 in
  ignore (Prng.bits64 t);
  let c = Prng.copy t in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 t)
    (Prng.bits64 c)

(* --- Rounding --- *)

let test_rounding_down_basic () =
  check_float "floor to grain" 0.99997500015 (Rounding.down 0.999975000156)

let test_rounding_up_basic () =
  check_float "ceil to grain" 4.8e-10 (Rounding.up 4.800000038e-10)

let test_rounding_down_exact () =
  check_float "exact grain multiple unchanged" 0.5 (Rounding.down 0.5)

let test_rounding_up_exact () =
  check_float "exact grain multiple unchanged" 0.5 (Rounding.up 0.5)

let test_rounding_order () =
  List.iter
    (fun x ->
      Alcotest.(check bool) "down <= up" true (Rounding.down x <= Rounding.up x))
    [ 0.0; 1e-12; 3.14e-7; 0.123456789; 0.999999999999 ]

let test_rounding_clamp () =
  check_float "clamps negative" 0.0 (Rounding.clamp01 (-1e-9));
  check_float "clamps above one" 1.0 (Rounding.clamp01 1.5);
  check_float "identity inside" 0.25 (Rounding.clamp01 0.25)

let test_is_probability () =
  Alcotest.(check bool) "0 ok" true (Rounding.is_probability 0.0);
  Alcotest.(check bool) "1 ok" true (Rounding.is_probability 1.0);
  Alcotest.(check bool) "nan not" false (Rounding.is_probability Float.nan);
  Alcotest.(check bool) "negative not" false (Rounding.is_probability (-0.1));
  Alcotest.(check bool) "above one not" false (Rounding.is_probability 1.1)

(* --- Symmetric --- *)

let test_h_empty () =
  let h = Symmetric.complete_homogeneous [||] 3 in
  Alcotest.(check (array (float 0.0))) "h over no vars" [| 1.0; 0.0; 0.0; 0.0 |] h

let test_h_single () =
  let p = 0.25 in
  let h = Symmetric.complete_homogeneous [| p |] 3 in
  check_float "h0" 1.0 h.(0);
  check_float "h1 = p" p h.(1);
  check_float "h2 = p^2" (p *. p) h.(2);
  check_float "h3 = p^3" (p *. p *. p) h.(3)

let test_h_two_vars () =
  let a = 0.1 and b = 0.2 in
  let h = Symmetric.complete_homogeneous [| a; b |] 2 in
  check_float "h1 = a+b" (a +. b) h.(1);
  check_float "h2 = a2+ab+b2" ((a *. a) +. (a *. b) +. (b *. b)) h.(2)

let test_h_negative_degree () =
  Alcotest.check_raises "negative degree"
    (Invalid_argument "Symmetric.complete_homogeneous: negative degree")
    (fun () -> ignore (Symmetric.complete_homogeneous [| 0.1 |] (-1)))

let test_fold_multisets_count () =
  List.iter
    (fun (n, f) ->
      let counted =
        Symmetric.fold_multisets ~n ~f ~init:0 (fun acc _ -> acc + 1)
      in
      Alcotest.(check int)
        (Printf.sprintf "count n=%d f=%d" n f)
        (Symmetric.count_multisets ~n ~f)
        counted)
    [ (1, 0); (1, 4); (2, 3); (3, 3); (4, 2); (5, 1) ]

let test_fold_multisets_sum () =
  (* every multiset has total multiplicity f *)
  Symmetric.fold_multisets ~n:3 ~f:4 ~init:() (fun () m ->
      Alcotest.(check int) "multiplicities sum to f" 4
        (Array.fold_left ( + ) 0 m))

let test_fold_multisets_empty () =
  Alcotest.(check int) "n=0 f=0 has one (empty) multiset" 1
    (Symmetric.fold_multisets ~n:0 ~f:0 ~init:0 (fun acc _ -> acc + 1));
  Alcotest.(check int) "n=0 f>0 has none" 0
    (Symmetric.fold_multisets ~n:0 ~f:2 ~init:0 (fun acc _ -> acc + 1))

let test_binomial () =
  Alcotest.(check int) "C(5,2)" 10 (Symmetric.binomial 5 2);
  Alcotest.(check int) "C(10,0)" 1 (Symmetric.binomial 10 0);
  Alcotest.(check int) "C(10,10)" 1 (Symmetric.binomial 10 10);
  Alcotest.(check int) "C(4,7) out of range" 0 (Symmetric.binomial 4 7);
  Alcotest.(check int) "C(n,-1)" 0 (Symmetric.binomial 4 (-1));
  Alcotest.(check int) "C(52,5)" 2598960 (Symmetric.binomial 52 5)

let test_count_multisets () =
  Alcotest.(check int) "3 procs 3 faults" 10 (Symmetric.count_multisets ~n:3 ~f:3);
  Alcotest.(check int) "1 proc f faults" 1 (Symmetric.count_multisets ~n:1 ~f:9)

let test_log_factorial () =
  check_close 1e-8 "ln 0!" 0.0 (Symmetric.log_factorial 0);
  check_close 1e-8 "ln 1!" 0.0 (Symmetric.log_factorial 1);
  check_close 1e-8 "ln 5!" (log 120.0) (Symmetric.log_factorial 5);
  check_close 1e-6 "ln 20!" (log 2.43290200817664e18) (Symmetric.log_factorial 20)

(* DP vs explicit enumeration on random vectors. *)
let prop_h_matches_enumeration =
  QCheck.Test.make ~count:200 ~name:"complete_homogeneous = multiset sums"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 5) (float_bound_inclusive 0.5))
        (int_bound 4))
    (fun (ps, f) ->
      let p = Array.of_list ps in
      let dp = (Symmetric.complete_homogeneous p f).(f) in
      let brute =
        Symmetric.fold_multisets ~n:(Array.length p) ~f ~init:0.0 (fun acc m ->
            let prod = ref 1.0 in
            Array.iteri (fun i times -> prod := !prod *. (p.(i) ** float_of_int times)) m;
            acc +. !prod)
      in
      Float.abs (dp -. brute) <= 1e-12 +. (1e-9 *. Float.abs brute))

(* Same cross-check on SFP-shaped tables: per-process failure
   probabilities are tiny and spread over decades (log-uniform in
   [1e-9, 1e-2]), where naive summation is most exposed to cancellation
   and scaling bugs.  The whole DP prefix h_0 .. h_k is compared, not
   just the top coefficient. *)
let prop_h_matches_enumeration_sfp_tables =
  QCheck.Test.make ~count:100
    ~name:"complete_homogeneous = multiset sums (log-uniform SFP tables)"
    QCheck.(
      pair (list_of_size Gen.(1 -- 8) (float_bound_inclusive 1.0)) (int_bound 6))
    (fun (us, k) ->
      let p =
        us
        |> List.map (fun u -> 10.0 ** (-9.0 +. (7.0 *. u)))
        |> Array.of_list
      in
      let dp = Symmetric.complete_homogeneous p k in
      let ok = ref true in
      for f = 0 to k do
        let brute =
          Symmetric.fold_multisets ~n:(Array.length p) ~f ~init:0.0
            (fun acc m ->
              let prod = ref 1.0 in
              Array.iteri
                (fun i times -> prod := !prod *. (p.(i) ** float_of_int times))
                m;
              acc +. !prod)
        in
        if Float.abs (dp.(f) -. brute) > 1e-15 +. (1e-9 *. Float.abs brute)
        then ok := false
      done;
      !ok)

let prop_binomial_pascal =
  QCheck.Test.make ~count:200 ~name:"Pascal identity"
    QCheck.(pair (int_bound 30) (int_bound 30))
    (fun (n, k) ->
      let n = n + 1 in
      Symmetric.binomial n k
      = Symmetric.binomial (n - 1) k + Symmetric.binomial (n - 1) (k - 1))

(* --- Stats --- *)

let test_mean () =
  check_float "empty" 0.0 (Stats.mean []);
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ])

let test_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_float "median" 3.0 (Stats.percentile xs 0.5);
  check_float "min" 1.0 (Stats.percentile xs 0.0);
  check_float "max" 5.0 (Stats.percentile xs 1.0);
  check_float "interpolated" 1.5 (Stats.percentile [ 1.0; 2.0 ] 0.5);
  Alcotest.check_raises "empty list"
    (Invalid_argument "Stats.percentile: empty list") (fun () ->
      ignore (Stats.percentile [] 0.5))

let test_wilson () =
  let lo, hi = Stats.binomial_confidence ~successes:50 ~trials:100 in
  Alcotest.(check bool) "contains p-hat" true (lo < 0.5 && 0.5 < hi);
  Alcotest.(check bool) "bounded" true (lo >= 0.0 && hi <= 1.0);
  let lo0, hi0 = Stats.binomial_confidence ~successes:0 ~trials:100 in
  Alcotest.(check bool) "zero successes" true (lo0 <= 1e-9 && hi0 < 0.1);
  let lo1, hi1 = Stats.binomial_confidence ~successes:0 ~trials:0 in
  Alcotest.(check bool) "no trials -> vacuous" true (lo1 = 0.0 && hi1 = 1.0)

let prop_percentile_within_range =
  QCheck.Test.make ~count:200 ~name:"percentile stays within extrema"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 20) (float_bound_inclusive 100.0))
        (float_bound_inclusive 1.0))
    (fun (xs, q) ->
      let v = Stats.percentile xs q in
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* --- Text_table --- *)

let test_table_render () =
  let t = Text_table.create ~headers:[ "a"; "b" ] in
  Text_table.add_row t [ "1"; "22" ];
  Text_table.add_row t [ "333" ];
  let s = Text_table.render t in
  Alcotest.(check bool) "contains header" true
    (Helpers.contains s "| a");
  Alcotest.(check bool) "contains padded row" true
    (Helpers.contains s "333")

let test_table_too_many_cells () =
  let t = Text_table.create ~headers:[ "a" ] in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Text_table.add_row: too many cells") (fun () ->
      Text_table.add_row t [ "1"; "2" ])

let test_table_alignment () =
  let t = Text_table.create ~headers:[ "col" ] in
  Text_table.set_aligns t [ Text_table.Right ];
  Text_table.add_row t [ "x" ];
  let s = Text_table.render t in
  Alcotest.(check bool) "right aligned cell" true
    (Helpers.contains s "|   x |")

let test_cell_formatters () =
  Alcotest.(check string) "float" "3.14" (Text_table.cell_float 3.14159);
  Alcotest.(check string) "float decimals" "3.1416"
    (Text_table.cell_float ~decimals:4 3.14159);
  Alcotest.(check string) "pct" "84.0" (Text_table.cell_pct 0.84)

(* --- Ascii_chart --- *)

let test_bar_chart () =
  let s =
    Ascii_chart.bar_chart ~title:"t" ~x_labels:[ "x1"; "x2" ]
      [ { Ascii_chart.label = "A"; values = [ 50.0; 100.0 ] } ]
  in
  Alcotest.(check bool) "contains label" true (Helpers.contains s "A");
  Alcotest.(check bool) "contains value" true
    (Helpers.contains s "100.0")

let test_bar_chart_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Ascii_chart.bar_chart: series length mismatch")
    (fun () ->
      ignore
        (Ascii_chart.bar_chart ~title:"t" ~x_labels:[ "x" ]
           [ { Ascii_chart.label = "A"; values = [ 1.0; 2.0 ] } ]))

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Ascii_chart.sparkline []);
  let s = Ascii_chart.sparkline [ 0.0; 1.0; 2.0 ] in
  Alcotest.(check int) "one char per point" 3 (String.length s)

(* --- Json --- *)

module Json = Ftes_util.Json

let json_roundtrip v =
  match Json.of_string (Json.to_string v) with
  | Ok v' -> v' = v
  | Error _ -> false

let test_json_roundtrip () =
  List.iter
    (fun v -> Alcotest.(check bool) "roundtrip" true (json_roundtrip v))
    [ Json.Null;
      Json.Bool true;
      Json.Number 3.5;
      Json.Number (-1.25e-7);
      Json.String "hello \"world\"\nline";
      Json.List [ Json.Number 1.0; Json.Null; Json.String "x" ];
      Json.Object
        [ ("a", Json.Number 1.0);
          ("nested", Json.Object [ ("b", Json.List []) ]) ];
      Json.List [];
      Json.Object [] ]

let test_json_minify () =
  let v = Json.Object [ ("a", Json.List [ Json.Number 1.0; Json.Number 2.0 ]) ] in
  Alcotest.(check string) "compact form" "{\"a\":[1,2]}"
    (Json.to_string ~minify:true v)

let test_json_parse_basics () =
  let ok input expected =
    match Json.of_string input with
    | Ok v -> Alcotest.(check bool) input true (v = expected)
    | Error e -> Alcotest.failf "%s: %s" input e
  in
  ok "  null " Json.Null;
  ok "true" (Json.Bool true);
  ok "-2.5e3" (Json.Number (-2500.0));
  ok "\"a\\tb\"" (Json.String "a\tb");
  ok "[1, 2]" (Json.List [ Json.Number 1.0; Json.Number 2.0 ]);
  ok "{\"k\": 1}" (Json.Object [ ("k", Json.Number 1.0) ])

let test_json_parse_errors () =
  List.iter
    (fun input ->
      match Json.of_string input with
      | Ok _ -> Alcotest.failf "%S should not parse" input
      | Error msg ->
          Alcotest.(check bool) "message carries an offset" true
            (Helpers.contains msg "offset"))
    [ ""; "{"; "[1,"; "nul"; "\"unterminated"; "{\"a\" 1}"; "1 2"; "[1,]" ]

let test_json_accessors () =
  let v =
    Json.Object
      [ ("x", Json.Number 4.0);
        ("s", Json.String "txt");
        ("flag", Json.Bool false);
        ("items", Json.List [ Json.Number 1.5; Json.Number 2.5 ]) ]
  in
  Alcotest.(check bool) "member + int" true
    (Result.bind (Json.member "x" v) Json.to_int = Ok 4);
  Alcotest.(check bool) "string" true
    (Result.bind (Json.member "s" v) Json.to_string_value = Ok "txt");
  Alcotest.(check bool) "bool" true
    (Result.bind (Json.member "flag" v) Json.to_bool = Ok false);
  Alcotest.(check bool) "float array" true
    (Result.bind (Json.member "items" v) Json.float_array = Ok [| 1.5; 2.5 |]);
  Alcotest.(check bool) "missing member" true
    (Result.is_error (Json.member "nope" v));
  Alcotest.(check bool) "wrong type" true
    (Result.is_error (Json.to_int (Json.String "x")));
  Alcotest.(check bool) "non-integer" true
    (Result.is_error (Json.to_int (Json.Number 1.5)))

(* Integers travel as floats: one outside OCaml's [int] range is an
   error, never a wrapped value (1e300 used to read as 0), while a
   nanosecond timestamp beyond 2^53 still decodes. *)
let test_json_int_range () =
  let to_int text = Result.bind (Json.of_string text) Json.to_int in
  Alcotest.(check bool) "1e300 rejected" true (Result.is_error (to_int "1e300"));
  Alcotest.(check bool) "-1e300 rejected" true
    (Result.is_error (to_int "-1e300"));
  Alcotest.(check bool) "2^62 rejected" true
    (Result.is_error (to_int "4611686018427387904"));
  Alcotest.(check bool) "-2^62 accepted" true (to_int "-4611686018427387904" = Ok min_int);
  Alcotest.(check bool) "2^60 accepted" true
    (to_int "1152921504606846976" = Ok (1 lsl 60));
  Alcotest.(check bool) "-0 is 0" true (to_int "-0" = Ok 0)

(* A number that overflows to infinity has no JSON spelling (infinity
   travels as null): the parser rejects it with an offset. *)
let test_json_non_finite () =
  List.iter
    (fun input ->
      match Json.of_string input with
      | Ok _ -> Alcotest.failf "%S should not parse" input
      | Error msg -> Helpers.check_contains input msg "offset 4")
    [ "[1, 21e999]"; "[1, -1e999]" ]

(* --- Csv --- *)

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Csv.escape_field "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape_field "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape_field "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (Csv.escape_field "a\nb")

let test_csv_document () =
  Alcotest.(check string) "rows" "a,b\n1,2\n"
    (Csv.to_string [ [ "a"; "b" ]; [ "1"; "2" ] ])

let test_csv_write_file () =
  let path = Filename.temp_file "ftes" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.write_file path [ [ "x"; "y" ]; [ "1"; "a,b" ] ];
      let ic = open_in path in
      let content =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check string) "file contents" "x,y\n1,\"a,b\"\n" content)

let test_csv_parse () =
  Alcotest.(check (list (list string)))
    "quoted commas, escaped quotes, CRLF"
    [ [ "a"; "b,c" ]; [ "say \"hi\""; "" ]; [ "last" ] ]
    (Csv.of_string "a,\"b,c\"\r\n\"say \"\"hi\"\"\",\nlast");
  Alcotest.(check (list (list string)))
    "trailing comma keeps the empty field"
    [ [ "x"; "" ] ]
    (Csv.of_string "x,\n");
  Alcotest.(check (list (list string)))
    "no final newline" [ [ "x"; "y" ] ] (Csv.of_string "x,y");
  Alcotest.check_raises "unterminated quote"
    (Invalid_argument "Csv.of_string: unterminated quoted field") (fun () ->
      ignore (Csv.of_string "\"oops"))

let prop_csv_roundtrip =
  QCheck.Test.make ~count:200 ~name:"Csv.of_string (Csv.to_string t) = t"
    QCheck.(
      small_list
        (small_list (string_gen_of_size Gen.(0 -- 6) Gen.printable)))
    (fun rows ->
      (* Normalize away the two representation edges: empty documents
         and all-empty rows do not round-trip structurally. *)
      let rows = List.map (fun row -> "x" :: row) rows in
      rows = [] || Csv.of_string (Csv.to_string rows) = rows)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ftes_util"
    [ ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_prng_int_in_bounds;
          Alcotest.test_case "invalid args" `Quick test_prng_int_invalid;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "float_in bounds" `Quick test_prng_float_in_bounds;
          Alcotest.test_case "int covers range" `Quick test_prng_int_covers_range;
          Alcotest.test_case "bool fair" `Quick test_prng_bool_both;
          Alcotest.test_case "chance extremes" `Quick test_prng_chance_extremes;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "choice" `Quick test_prng_choice;
          Alcotest.test_case "exponential" `Quick test_prng_exponential;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy ] );
      ( "rounding",
        [ Alcotest.test_case "down basic" `Quick test_rounding_down_basic;
          Alcotest.test_case "up basic" `Quick test_rounding_up_basic;
          Alcotest.test_case "down exact" `Quick test_rounding_down_exact;
          Alcotest.test_case "up exact" `Quick test_rounding_up_exact;
          Alcotest.test_case "down <= up" `Quick test_rounding_order;
          Alcotest.test_case "clamp01" `Quick test_rounding_clamp;
          Alcotest.test_case "is_probability" `Quick test_is_probability ] );
      ( "symmetric",
        [ Alcotest.test_case "h over empty set" `Quick test_h_empty;
          Alcotest.test_case "h single var" `Quick test_h_single;
          Alcotest.test_case "h two vars" `Quick test_h_two_vars;
          Alcotest.test_case "negative degree" `Quick test_h_negative_degree;
          Alcotest.test_case "multiset counts" `Quick test_fold_multisets_count;
          Alcotest.test_case "multiset sums" `Quick test_fold_multisets_sum;
          Alcotest.test_case "empty multisets" `Quick test_fold_multisets_empty;
          Alcotest.test_case "binomial" `Quick test_binomial;
          Alcotest.test_case "count_multisets" `Quick test_count_multisets;
          Alcotest.test_case "log_factorial" `Quick test_log_factorial;
          q prop_h_matches_enumeration;
          q prop_h_matches_enumeration_sfp_tables;
          q prop_binomial_pascal ] );
      ( "stats",
        [ Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "wilson interval" `Quick test_wilson;
          q prop_percentile_within_range ] );
      ( "text_table",
        [ Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "too many cells" `Quick test_table_too_many_cells;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "cell formatters" `Quick test_cell_formatters ] );
      ( "ascii_chart",
        [ Alcotest.test_case "bar chart" `Quick test_bar_chart;
          Alcotest.test_case "length mismatch" `Quick test_bar_chart_mismatch;
          Alcotest.test_case "sparkline" `Quick test_sparkline ] );
      ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "minify" `Quick test_json_minify;
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "int range" `Quick test_json_int_range;
          Alcotest.test_case "non-finite numbers" `Quick test_json_non_finite ] );
      ( "csv",
        [ Alcotest.test_case "escaping" `Quick test_csv_escape;
          Alcotest.test_case "document" `Quick test_csv_document;
          Alcotest.test_case "write file" `Quick test_csv_write_file;
          Alcotest.test_case "parse" `Quick test_csv_parse;
          q prop_csv_roundtrip ] ) ]
