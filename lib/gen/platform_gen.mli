(** Platform-table synthesis.

    Expands a compact node description (speed factor, base cost, number
    of h-versions) into the full per-process WCET / failure-probability
    tables of {!Ftes_model.Platform}, using the degradation schedule of
    {!Ftes_model.Hardening} and the transient-fault model of
    {!Ftes_faultsim.Fault_model}. *)

type tech = {
  ser_per_cycle : float;
      (** average soft error rate at the minimum hardening level. *)
  reduction_factor : float;  (** SER division per hardening level. *)
  clock_hz : float;
}

val tech :
  ?reduction_factor:float -> ?clock_hz:float -> ser_per_cycle:float -> unit -> tech
(** Defaults: reduction 100 per level, 100 MHz clock. *)

type node_spec = {
  name : string;
  base_cost : float;  (** cost of the minimum-hardening version. *)
  speed : float;  (** WCET multiplier of this node (1.0 = fastest). *)
  levels : int;  (** number of h-versions. *)
}

val node_type :
  tech:tech ->
  hpd:float ->
  base_wcets_ms:float array ->
  node_spec ->
  Ftes_model.Platform.node_type
(** [node_type ~tech ~hpd ~base_wcets_ms spec] builds the h-version
    table: WCET of process [i] at level [h] is
    [base.(i) * spec.speed * (1 + degradation h)], its failure
    probability is the closed-form strike probability over that duration
    with the level's masking, and costs follow
    {!Ftes_model.Hardening.linear_cost}. *)
