(** What the verifier is asked to certify.

    A subject is a [(problem, design, schedule)] triple or any prefix of
    it.  The slack policy and bus arbitration the schedule was built
    under must accompany the schedule, because the verifier re-derives
    the recovery-slack accounting per policy instead of trusting the
    scheduler's own bookkeeping. *)

type campaign_docs = {
  manifest : Ftes_util.Json.t;
  checkpoints : (string * Ftes_util.Json.t) list;
      (** label (e.g. filename) and parsed document per shard
          checkpoint. *)
  merged : Ftes_util.Json.t option;
}
(** Raw campaign documents, exactly as read from a campaign directory.
    Kept as parsed JSON — the [campaign/*] rules audit the on-disk
    formats themselves (schema, shard partition, fingerprints, merge
    identities), independent of [Ftes_campaign]'s own decoders, which
    also keeps the verifier free of a dependency on the optimizer
    stack. *)

type t = {
  problem : Ftes_model.Problem.t;
  design : Ftes_model.Design.t option;
  schedule : Ftes_sched.Schedule.t option;
  slack : Ftes_sched.Scheduler.slack_mode;
      (** policy the schedule was synthesized under. *)
  bus : Ftes_sched.Bus.policy;  (** bus arbitration of the schedule. *)
  sfp_tables : Ftes_sfp.Sfp.node_analysis array option;
      (** memoized per-member SFP tables the producer actually used
          (one per architecture slot), when it used a cache; the
          SFP-cache contract rule re-derives each from scratch. *)
  metrics : Ftes_obs.Metrics.snapshot option;
      (** metrics snapshot taken from the producing run, when the
          caller wants its internal consistency certified. *)
  archive : Ftes_pareto.Archive.t option;
      (** Pareto archive produced by a frontier run, when the caller
          wants the [pareto/*] rules to certify it against the
          subject's problem and policies. *)
  opt_cost : float option;
      (** the single-objective OPT cost {!Ftes_core.Design_strategy}
          found for the same problem and config, when known — enables
          the [pareto/min-cost] cross-check. *)
  certificate : Ftes_analyze.Preflight.t option;
      (** a pre-flight report — fresh or decoded from a certificate —
          to audit against the subject's problem (and, when present,
          its design / archive / OPT cost), enabling the [analyze/*]
          rules. *)
  bnb_certificate : Ftes_analyze.Bnb_certificate.t option;
      (** a branch-and-bound optimality certificate to audit, enabling
          the [bnb/*] rules.  The subject's [slack] and [bus] must be
          the policies the search ran under: the incumbent is
          re-scheduled and the prune premises re-derived against
          them. *)
  responses : Ftes_util.Json.t list option;
      (** a design-service response stream (one parsed JSON envelope
          per emitted line, in emission order), enabling the [serve/*]
          rules.  Kept as raw JSON — the rules audit the wire format
          itself, independent of the daemon's own decoder. *)
  campaign : campaign_docs option;
      (** a campaign's manifest, shard checkpoints and (optionally)
          merged result, enabling the [campaign/*] rules. *)
}

val of_problem : Ftes_model.Problem.t -> t
(** Problem only: graph and library rules apply. *)

val of_design : Ftes_model.Problem.t -> Ftes_model.Design.t -> t
(** Problem + design: adds mapping/architecture and SFP rules. *)

val of_schedule :
  ?slack:Ftes_sched.Scheduler.slack_mode ->
  ?bus:Ftes_sched.Bus.policy ->
  ?sfp_tables:Ftes_sfp.Sfp.node_analysis array ->
  Ftes_model.Problem.t ->
  Ftes_model.Design.t ->
  Ftes_sched.Schedule.t ->
  t
(** The full triple (defaults: shared slack, FCFS bus, no tables). *)

val with_metrics : t -> Ftes_obs.Metrics.snapshot -> t
(** Attach a metrics snapshot, enabling the [obs/*] rules. *)

val with_archive : ?opt_cost:float -> t -> Ftes_pareto.Archive.t -> t
(** Attach a frontier archive (and, when known, the reference OPT
    cost), enabling the [pareto/*] rules.  The subject's [slack] and
    [bus] must be the policies the frontier was explored under: the
    feasibility rules re-derive each point's schedule against them. *)

val with_certificate : t -> Ftes_analyze.Preflight.t -> t
(** Attach a pre-flight report, enabling the [analyze/*] audit rules —
    they re-derive the whole analysis from the subject's problem and
    compare it against the report's claims. *)

val with_bnb_certificate : t -> Ftes_analyze.Bnb_certificate.t -> t
(** Attach a branch-and-bound optimality certificate, enabling the
    [bnb/*] audit rules.  Set the subject's [slack] and [bus] to the
    search's policies first (e.g. through a record update on
    {!of_problem} / {!of_design}). *)

val with_responses : t -> Ftes_util.Json.t list -> t
(** Attach a design-service response stream (parsed envelopes in
    emission order), enabling the [serve/*] rules. *)

val with_campaign :
  ?merged:Ftes_util.Json.t ->
  t ->
  manifest:Ftes_util.Json.t ->
  checkpoints:(string * Ftes_util.Json.t) list ->
  t
(** Attach a campaign's raw documents, enabling the [campaign/*]
    rules.  The subject's problem is unused by those rules (any
    problem, e.g. the one the verifier CLI already loaded, will do). *)
