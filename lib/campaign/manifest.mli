(** Campaign manifest: the complete, versioned description of a
    sharded exploration campaign (DESIGN.md §16).

    A campaign evaluates the Section 7 cell grid (SER × HPD ×
    hardening policy) over a synthetic population of [apps]
    applications, split into [shards] contiguous application ranges.
    Everything a worker needs is derived deterministically from this
    record: the population slice of shard [i] is
    {!Ftes_gen.Workload.suite_slice} over {!shard_range} — bit-identical
    to the corresponding slice of the sequential suite — so two workers
    given the same manifest can never disagree about the work.

    The manifest is serialized once into [manifest.json] at campaign
    creation; its {!fingerprint} (FNV-1a over the minified document) is
    stamped into every checkpoint, which is how resume detects a
    checkpoint written for a different campaign. *)

type plan
(** What a campaign derives from its manifest, held by the manifest
    itself so that every checkpoint load, scan, shard run and merge of
    one process derives it at most once:

    - the {!fingerprint}, computed once by {!make} / {!of_json};
    - the cell grid ({!cells}, {!cell});
    - each shard's population slice ({!specs_for_shard}), derived on
      the shard's first use and then kept for the manifest's lifetime
      (a slice re-runs the greedy mapping and schedule behind every
      application's deadline);
    - the problems ({!problem}), built on first use into one bounded
      {!Ftes_par.Memo} (counter family [campaign.problems], at most
      4096 problems; one retains about 20 KB).  Past the bound a
      problem is built per call and not kept.

    All lazily derived state sits behind the memo's or the manifest's
    own mutex, so domains may share a manifest.

    The [campaign/*] verifier rules do not use the plan: they audit
    the raw documents and recompute the fingerprint and the partition
    themselves, so they share no derived state (and no bug) with the
    code they audit. *)

type t = private {
  params : Ftes_gen.Workload.params;  (** workload generator knobs. *)
  apps : int;  (** population size ([>= 1]). *)
  seed : int;  (** master seed of the population ([>= 0]). *)
  shards : int;  (** [1 <= shards <= apps]. *)
  sers : float list;  (** SER grid axis, non-empty. *)
  hpds : float list;  (** HPD grid axis, non-empty. *)
  policies : Ftes_core.Config.hardening_policy list;  (** non-empty. *)
  eps : float;  (** frontier archive resolution; [0.] keeps it exact. *)
  plan : plan;  (** derived from the eight fields above. *)
}
(** Only {!make} and {!of_json} build a manifest, so its plan always
    matches its described fields.  Compare manifests with {!equal}:
    the plan holds mutexes, on which polymorphic equality raises. *)

val make :
  ?params:Ftes_gen.Workload.params ->
  ?sers:float list ->
  ?hpds:float list ->
  ?policies:Ftes_core.Config.hardening_policy list ->
  ?eps:float ->
  apps:int ->
  seed:int ->
  shards:int ->
  unit ->
  t
(** Checked constructor (defaults: Section 7 params, SER [1e-11], HPD
    [0.25], policies [[MIN; OPT]], [eps = 0.]).  Raises
    [Invalid_argument] on an empty grid axis, [apps < 1], [seed < 0], a
    shard count outside [\[1, apps\]], a non-finite grid value or a
    negative or non-finite [eps]. *)

val equal : t -> t -> bool
(** Equal described fields and equal {!fingerprint}s. *)

val cells : t -> Ftes_exp.Synthetic.cell_key list
(** The cell grid in canonical order (SER outer, then HPD, then
    policy) — the order checkpoints list their per-cell results in. *)

val n_cells : t -> int

val cell : t -> int -> Ftes_exp.Synthetic.cell_key
(** [cell t i] is the [i]-th cell of {!cells}.  Raises
    [Invalid_argument] outside [\[0, n_cells t)]. *)

val shard_range : t -> int -> int * int
(** [shard_range t i] is the application index range [\[lo, hi)] of
    shard [i]: [lo = i*apps/shards], [hi = (i+1)*apps/shards] (integer
    division) — disjoint, contiguous and covering [\[0, apps)].  Raises
    [Invalid_argument] outside [\[0, shards)]. *)

val specs_for_shard : t -> int -> Ftes_gen.Workload.app_spec list
(** The shard's population slice, bit-identical to the corresponding
    sub-list of the sequential [apps]-application suite.  Derived on
    the shard's first use, then read from the plan. *)

val problem : t -> cell:int -> app:int -> Ftes_model.Problem.t
(** [problem t ~cell ~app] is {!Ftes_gen.Workload.problem_of_spec} of
    application [app]'s spec in cell [cell] (an index into {!cells}),
    memoised in the plan.  Cells that differ only in policy share one
    problem, since the policy does not enter it.  Raises
    [Invalid_argument] on a cell or application out of range. *)

val archive_spec : t -> Ftes_pareto.Archive.spec
(** All three objectives at the manifest's [eps]. *)

val to_json : t -> Ftes_util.Json.t

val of_json : Ftes_util.Json.t -> (t, string) result

val fingerprint : t -> string
(** {!Ftes_util.Fingerprint.of_json} of {!to_json} — stable across a
    save/load round-trip.  Read from the plan. *)

val path : dir:string -> string

val save : dir:string -> t -> unit
(** Atomic write of [dir/manifest.json]. *)

val load : dir:string -> (t, string) result
