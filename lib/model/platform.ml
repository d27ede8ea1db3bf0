type hversion = {
  level : int;
  cost : float;
  wcet_ms : float array;
  pfail : float array;
}

type node_type = { node_name : string; versions : hversion array }

let hversion ~level ~cost ~wcet_ms ~pfail =
  if level < 1 then invalid_arg "Platform.hversion: level must be >= 1";
  if not (Float.is_finite cost) || cost <= 0.0 then
    invalid_arg "Platform.hversion: cost must be positive";
  if Array.length wcet_ms <> Array.length pfail then
    invalid_arg "Platform.hversion: wcet/pfail table size mismatch";
  Array.iter
    (fun t ->
      if not (Float.is_finite t) || t <= 0.0 then
        invalid_arg "Platform.hversion: WCET must be positive")
    wcet_ms;
  Array.iter
    (fun p ->
      if not (Float.is_finite p) || p < 0.0 || p >= 1.0 then
        invalid_arg "Platform.hversion: failure probability must be in [0,1)")
    pfail;
  { level; cost; wcet_ms; pfail }

let node_type ~name ~versions =
  if Array.length versions = 0 then
    invalid_arg "Platform.node_type: node needs at least one h-version";
  let width = Array.length versions.(0).wcet_ms in
  Array.iteri
    (fun i v ->
      if v.level <> i + 1 then
        invalid_arg "Platform.node_type: levels must be consecutive from 1";
      if Array.length v.wcet_ms <> width then
        invalid_arg "Platform.node_type: inconsistent process counts")
    versions;
  for i = 1 to Array.length versions - 1 do
    let lower = versions.(i - 1) and higher = versions.(i) in
    if higher.cost <= lower.cost then
      invalid_arg "Platform.node_type: cost must increase with hardening";
    for p = 0 to width - 1 do
      if higher.pfail.(p) > lower.pfail.(p) then
        invalid_arg
          "Platform.node_type: failure probability must not increase with \
           hardening"
    done
  done;
  { node_name = name; versions }

let levels nt = Array.length nt.versions

let n_processes nt = Array.length nt.versions.(0).wcet_ms

let version nt ~level =
  if level < 1 || level > levels nt then
    invalid_arg "Platform.version: level out of range";
  nt.versions.(level - 1)

let mean_wcet nt ~level =
  let v = version nt ~level in
  let n = Array.length v.wcet_ms in
  if n = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 v.wcet_ms /. float_of_int n
