module Json = Ftes_util.Json
module Workload = Ftes_gen.Workload
module Config = Ftes_core.Config
module Synthetic = Ftes_exp.Synthetic
open Json

let schema_version = 1

let filename = "manifest.json"

(* Problems are keyed by (SER x HPD grid point, application): the
   policy axis does not enter [Workload.problem_of_spec], so the cells
   that differ only in policy share one problem. *)
module Problem_memo = Ftes_par.Memo.Make (struct
  type t = int * int

  let equal ((g, a) : t) (g', a') = g = g' && a = a'

  let hash = Hashtbl.hash
end)

let problems_family = Ftes_par.Memo.family "campaign.problems"

(* A problem retains about 20 KB (mean over a Section 7 population of
   20- and 40-process applications), so the bound keeps a manifest's
   memo near 80 MB however large the population. *)
let problems_capacity = 4096

type plan = {
  fingerprint : string;
  cells : Synthetic.cell_key array;
  lock : Mutex.t;
  specs : Workload.app_spec array option array;
      (* per shard, derived on first use; guarded by [lock]. *)
  problems : Ftes_model.Problem.t Problem_memo.t;
}

type t = {
  params : Workload.params;
  apps : int;
  seed : int;
  shards : int;
  sers : float list;
  hpds : float list;
  policies : Config.hardening_policy list;
  eps : float;
  plan : plan;
}

let validate ~apps ~seed ~shards ~sers ~hpds ~policies ~eps =
  if apps < 1 then invalid_arg "Manifest.make: apps must be >= 1";
  if seed < 0 then invalid_arg "Manifest.make: seed must be >= 0";
  if shards < 1 || shards > apps then
    invalid_arg "Manifest.make: shards must be within [1, apps]";
  let finite label vs =
    if vs = [] then invalid_arg ("Manifest.make: empty " ^ label ^ " axis");
    List.iter
      (fun v ->
        if not (Float.is_finite v) then
          invalid_arg ("Manifest.make: non-finite " ^ label ^ " value"))
      vs
  in
  finite "SER" sers;
  finite "HPD" hpds;
  if policies = [] then invalid_arg "Manifest.make: empty policy axis";
  if not (Float.is_finite eps) || eps < 0.0 then
    invalid_arg "Manifest.make: eps must be finite and non-negative"

let pair_json (a, b) = List [ Number a; Number b ]

let params_to_json (p : Workload.params) =
  Object
    [ ("n_library", int p.n_library);
      ("levels", int p.levels);
      ("base_wcet_range", pair_json p.base_wcet_range);
      ("cost_range", pair_json p.cost_range);
      ("speed_range", pair_json p.speed_range);
      ("mu_fraction_range", pair_json p.mu_fraction_range);
      ("gamma_range", pair_json p.gamma_range);
      ("deadline_factor_range", pair_json p.deadline_factor_range);
      ("reduction_factor", Number p.reduction_factor);
      ("clock_hz", Number p.clock_hz) ]

let document ~params ~apps ~seed ~shards ~sers ~hpds ~policies ~eps =
  Object
    [ Ftes_util.Versioned_json.field schema_version;
      ("apps", int apps);
      ("seed", int seed);
      ("shards", int shards);
      ("sers", floats (Array.of_list sers));
      ("hpds", floats (Array.of_list hpds));
      ( "policies",
        List (List.map (fun p -> String (Config.policy_name p)) policies) );
      ("eps", Number eps);
      ("params", params_to_json params) ]

let to_json t =
  document ~params:t.params ~apps:t.apps ~seed:t.seed ~shards:t.shards
    ~sers:t.sers ~hpds:t.hpds ~policies:t.policies ~eps:t.eps

(* Canonical order: SER outer, then HPD, then policy. *)
let grid ~sers ~hpds ~policies =
  List.concat_map
    (fun ser ->
      List.concat_map
        (fun hpd ->
          List.map (fun policy -> { Synthetic.ser; hpd; policy }) policies)
        hpds)
    sers
  |> Array.of_list

(* Validates, then builds the plan's eager part: the fingerprint and
   the cell grid. *)
let make ?(params = Workload.default_params) ?(sers = [ 1e-11 ])
    ?(hpds = [ 0.25 ]) ?(policies = [ Config.Fixed_min; Config.Optimize ])
    ?(eps = 0.0) ~apps ~seed ~shards () =
  validate ~apps ~seed ~shards ~sers ~hpds ~policies ~eps;
  let plan =
    {
      fingerprint =
        Ftes_util.Fingerprint.of_json
          (document ~params ~apps ~seed ~shards ~sers ~hpds ~policies ~eps);
      cells = grid ~sers ~hpds ~policies;
      lock = Mutex.create ();
      specs = Array.make shards None;
      problems =
        Problem_memo.create ~capacity:problems_capacity problems_family;
    }
  in
  { params; apps; seed; shards; sers; hpds; policies; eps; plan }

let fingerprint t = t.plan.fingerprint

let equal a b =
  a.params = b.params && a.apps = b.apps && a.seed = b.seed
  && a.shards = b.shards && a.sers = b.sers && a.hpds = b.hpds
  && a.policies = b.policies && a.eps = b.eps
  && fingerprint a = fingerprint b

let cells t = Array.to_list t.plan.cells

let n_cells t = Array.length t.plan.cells

let cell t i =
  if i < 0 || i >= n_cells t then
    invalid_arg (Printf.sprintf "Manifest.cell: cell %d of %d" i (n_cells t));
  t.plan.cells.(i)

let shard_range t i =
  if i < 0 || i >= t.shards then
    invalid_arg (Printf.sprintf "Manifest.shard_range: shard %d of %d" i t.shards);
  (i * t.apps / t.shards, (i + 1) * t.apps / t.shards)

(* The shard whose range holds [app]: the largest [i] with
   [i * apps / shards <= app], i.e. [i * apps < (app + 1) * shards]. *)
let shard_of_app t app = (((app + 1) * t.shards) - 1) / t.apps

(* Derived outside the lock (the derivation re-runs the greedy mapping
   and schedule behind every deadline); the first stored slice wins, so
   every caller gets the same array. *)
let shard_specs t i =
  let lo, hi = shard_range t i in
  let plan = t.plan in
  match Mutex.protect plan.lock (fun () -> plan.specs.(i)) with
  | Some specs -> specs
  | None ->
      let specs =
        Array.of_list
          (Workload.suite_slice ~params:t.params ~count:t.apps ~seed:t.seed
             ~lo ~hi ())
      in
      Mutex.protect plan.lock (fun () ->
          match plan.specs.(i) with
          | Some stored -> stored
          | None ->
              plan.specs.(i) <- Some specs;
              specs)

let specs_for_shard t i = Array.to_list (shard_specs t i)

let problem t ~cell:index ~app =
  let key = cell t index in
  if app < 0 || app >= t.apps then
    invalid_arg (Printf.sprintf "Manifest.problem: application %d of %d" app t.apps);
  let memo_key = (index / List.length t.policies, app) in
  match Problem_memo.find t.plan.problems memo_key with
  | Some problem -> problem
  | None ->
      let shard = shard_of_app t app in
      let lo, _ = shard_range t shard in
      let spec = (shard_specs t shard).(app - lo) in
      Problem_memo.add t.plan.problems memo_key
        (Workload.problem_of_spec ~params:t.params
           { Workload.ser = key.Synthetic.ser; hpd = key.Synthetic.hpd }
           spec)

let archive_spec t = Ftes_pareto.Archive.spec ~eps:t.eps ()

let policy_of_name = function
  | "OPT" -> Ok Config.Optimize
  | "MIN" -> Ok Config.Fixed_min
  | "MAX" -> Ok Config.Fixed_max
  | name -> Error (Printf.sprintf "unknown hardening policy %S" name)

let pair_of_json json =
  match json with
  | List [ a; b ] ->
      let* a = to_float a in
      let* b = to_float b in
      Ok (a, b)
  | _ -> Error "expected a [lo, hi] pair"

let params_of_json json =
  let* n_library = field "n_library" to_int json in
  let* levels = field "levels" to_int json in
  let* base_wcet_range = field "base_wcet_range" pair_of_json json in
  let* cost_range = field "cost_range" pair_of_json json in
  let* speed_range = field "speed_range" pair_of_json json in
  let* mu_fraction_range = field "mu_fraction_range" pair_of_json json in
  let* gamma_range = field "gamma_range" pair_of_json json in
  let* deadline_factor_range = field "deadline_factor_range" pair_of_json json in
  let* reduction_factor = field "reduction_factor" to_float json in
  let* clock_hz = field "clock_hz" to_float json in
  Ok
    {
      Workload.n_library;
      levels;
      base_wcet_range;
      cost_range;
      speed_range;
      mu_fraction_range;
      gamma_range;
      deadline_factor_range;
      reduction_factor;
      clock_hz;
    }

let of_json json =
  Ftes_util.Versioned_json.decode ~what:"campaign manifest" ~accept_v0:false
    ~current:schema_version
    (fun json ->
      let* apps = field "apps" to_int json in
      let* seed = field "seed" to_int json in
      let* shards = field "shards" to_int json in
      let* sers = field "sers" (list_of to_float) json in
      let* hpds = field "hpds" (list_of to_float) json in
      let* policies =
        field "policies"
          (list_of (fun j -> Result.bind (to_string_value j) policy_of_name))
          json
      in
      let* eps = field "eps" to_float json in
      let* params = field "params" params_of_json json in
      match make ~params ~sers ~hpds ~policies ~eps ~apps ~seed ~shards () with
      | t -> Ok t
      | exception Invalid_argument msg -> Error msg)
    json

let path ~dir = Filename.concat dir filename

let save ~dir t = Ftes_util.Versioned_json.save (path ~dir) (to_json t)

let load ~dir = Ftes_util.Versioned_json.load of_json (path ~dir)
