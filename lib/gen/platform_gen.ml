module Platform = Ftes_model.Platform
module Hardening = Ftes_model.Hardening
module Fault_model = Ftes_faultsim.Fault_model

type tech = {
  ser_per_cycle : float;
  reduction_factor : float;
  clock_hz : float;
}

let tech ?(reduction_factor = 100.0) ?(clock_hz = Fault_model.default_clock_hz)
    ~ser_per_cycle () =
  if ser_per_cycle < 0.0 then invalid_arg "Platform_gen.tech: negative SER";
  { ser_per_cycle; reduction_factor; clock_hz }

type node_spec = {
  name : string;
  base_cost : float;
  speed : float;
  levels : int;
}

let node_type ~tech ~hpd ~base_wcets_ms spec =
  if spec.levels < 1 then invalid_arg "Platform_gen.node_type: no levels";
  if spec.speed <= 0.0 then invalid_arg "Platform_gen.node_type: bad speed";
  let versions =
    Array.init spec.levels (fun idx ->
        let level = idx + 1 in
        let model =
          Fault_model.of_hardening ~clock_hz:tech.clock_hz
            ~reduction_factor:tech.reduction_factor
            ~ser_per_cycle:tech.ser_per_cycle ~level ()
        in
        let deg = Hardening.degradation ~hpd ~level ~levels:spec.levels in
        let wcet_ms =
          Array.map (fun base -> base *. spec.speed *. (1.0 +. deg)) base_wcets_ms
        in
        let pfail =
          Array.map
            (fun duration_ms -> Fault_model.failure_probability model ~duration_ms)
            wcet_ms
        in
        Platform.hversion ~level
          ~cost:(Hardening.linear_cost ~base:spec.base_cost ~level)
          ~wcet_ms ~pfail)
  in
  Platform.node_type ~name:spec.name ~versions
