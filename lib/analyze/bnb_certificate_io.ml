module Json = Ftes_util.Json
open Json

let schema_version = 1

let prefix_json prefix = ("prefix", ints prefix)

let prune_to_json (p : Bnb_certificate.prune) =
  match p with
  | Bnb_certificate.Cost_bound { prefix; lower_bound; incumbent_cost } ->
      Object
        [ ("kind", String "cost-bound");
          prefix_json prefix;
          ("lower_bound", Number lower_bound);
          ("incumbent_cost", Number incumbent_cost) ]
  | Bnb_certificate.Arch_infeasible
      { prefix; subtree; verdict = Bnb_certificate.Unreliable proc } ->
      Object
        [ ("kind", String "arch-unreliable");
          prefix_json prefix;
          ("subtree", Bool subtree);
          ("proc", int proc) ]
  | Bnb_certificate.Arch_infeasible
      { prefix; subtree; verdict = Bnb_certificate.Deadline lb } ->
      Object
        [ ("kind", String "arch-deadline");
          prefix_json prefix;
          ("subtree", Bool subtree);
          ("length_lower_bound_ms", Number lb) ]
  | Bnb_certificate.Symmetry { prefix; skipped; canonical } ->
      Object
        [ ("kind", String "symmetry");
          prefix_json prefix;
          ("skipped", int skipped);
          ("canonical", int canonical) ]

let incumbent_to_json (i : Bnb_certificate.incumbent) =
  Object
    [ ("members", ints i.Bnb_certificate.members);
      ("levels", ints i.Bnb_certificate.levels);
      ("reexecs", ints i.Bnb_certificate.reexecs);
      ("mapping", ints i.Bnb_certificate.mapping);
      ("cost", Number i.Bnb_certificate.cost);
      ("schedule_length_ms", Number i.Bnb_certificate.schedule_length_ms) ]

let counters_to_json (k : Bnb_certificate.counters) =
  Object
    [ ("expanded", int k.Bnb_certificate.expanded);
      ("closed", int k.Bnb_certificate.closed);
      ("evaluated", int k.Bnb_certificate.evaluated);
      ("pruned_cost", int k.Bnb_certificate.pruned_cost);
      ("pruned_arch", int k.Bnb_certificate.pruned_arch);
      ("pruned_symmetry", int k.Bnb_certificate.pruned_symmetry);
      ("pruned_levels", int k.Bnb_certificate.pruned_levels);
      ("pruned_mappings", int k.Bnb_certificate.pruned_mappings) ]

let to_json (c : Bnb_certificate.t) =
  Object
    [ Ftes_util.Versioned_json.field schema_version;
      ("problem", Certificate_io.summary_to_json c.Bnb_certificate.summary);
      ( "premises",
        Object
          [ ("kmax", int c.Bnb_certificate.kmax);
            ("search_space", Number c.Bnb_certificate.search_space);
            ( "represented_subsets",
              Number c.Bnb_certificate.represented_subsets ) ] );
      ( "costs",
        Object
          [ ("heuristic", number_or_null c.Bnb_certificate.heuristic_cost);
            ("optimal", number_or_null c.Bnb_certificate.optimal_cost) ] );
      ( "incumbent",
        match c.Bnb_certificate.incumbent with
        | Some i -> incumbent_to_json i
        | None -> Null );
      ("counters", counters_to_json c.Bnb_certificate.counters);
      ( "prunes",
        List (List.map prune_to_json c.Bnb_certificate.prunes) ) ]

let prune_of_json json =
  let* kind = field "kind" to_string_value json in
  let* prefix = field "prefix" int_array json in
  match kind with
  | "cost-bound" ->
      let* lower_bound = field "lower_bound" to_float json in
      let* incumbent_cost = field "incumbent_cost" to_float json in
      Ok (Bnb_certificate.Cost_bound { prefix; lower_bound; incumbent_cost })
  | "arch-unreliable" ->
      let* subtree = field "subtree" to_bool json in
      let* proc = field "proc" to_int json in
      Ok
        (Bnb_certificate.Arch_infeasible
           { prefix; subtree; verdict = Bnb_certificate.Unreliable proc })
  | "arch-deadline" ->
      let* subtree = field "subtree" to_bool json in
      let* lb = field "length_lower_bound_ms" to_float json in
      Ok
        (Bnb_certificate.Arch_infeasible
           { prefix; subtree; verdict = Bnb_certificate.Deadline lb })
  | "symmetry" ->
      let* skipped = field "skipped" to_int json in
      let* canonical = field "canonical" to_int json in
      Ok (Bnb_certificate.Symmetry { prefix; skipped; canonical })
  | other -> Error (Printf.sprintf "prune: unknown kind %S" other)

let incumbent_of_json json =
  let* members = field "members" int_array json in
  let* levels = field "levels" int_array json in
  let* reexecs = field "reexecs" int_array json in
  let* mapping = field "mapping" int_array json in
  let* cost = field "cost" to_float json in
  let* schedule_length_ms = field "schedule_length_ms" to_float json in
  Ok
    { Bnb_certificate.members;
      levels;
      reexecs;
      mapping;
      cost;
      schedule_length_ms }

let of_json ?on_warning json =
  Ftes_util.Versioned_json.decode ~what:"optimality certificate"
    ~accept_v0:false ?on_warning ~current:schema_version
    (fun json ->
      let* summary = field "problem" Certificate_io.summary_of_json json in
      let* premises = member "premises" json in
      let* kmax = field "kmax" to_int premises in
      let* search_space = field "search_space" to_float premises in
      let* represented_subsets =
        field "represented_subsets" to_float premises
      in
      let* costs = member "costs" json in
      let* heuristic_cost = field "heuristic" to_float_or_inf costs in
      let* optimal_cost = field "optimal" to_float_or_inf costs in
      let* incumbent = field "incumbent" (nullable incumbent_of_json) json in
      let* counters = member "counters" json in
      let count name = field name to_int counters in
      let* expanded = count "expanded" in
      let* closed = count "closed" in
      let* evaluated = count "evaluated" in
      let* pruned_cost = count "pruned_cost" in
      let* pruned_arch = count "pruned_arch" in
      let* pruned_symmetry = count "pruned_symmetry" in
      let* pruned_levels = count "pruned_levels" in
      let* pruned_mappings = count "pruned_mappings" in
      let* prunes = field "prunes" (list_of prune_of_json) json in
      Ok
        { Bnb_certificate.summary;
          kmax;
          search_space;
          represented_subsets;
          heuristic_cost;
          optimal_cost;
          incumbent;
          counters =
            { Bnb_certificate.expanded;
              closed;
              evaluated;
              pruned_cost;
              pruned_arch;
              pruned_symmetry;
              pruned_levels;
              pruned_mappings };
          prunes })
    json

let to_string c = Json.to_string (to_json c)

let of_string ?on_warning s =
  Result.bind (Json.of_string s) (of_json ?on_warning)

let save path c = Ftes_util.Versioned_json.save path (to_json c)

let load ?on_warning path = Ftes_util.Versioned_json.load (of_json ?on_warning) path
