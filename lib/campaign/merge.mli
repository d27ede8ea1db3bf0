(** Exact campaign merge: per-cell concatenation of the shards' cost
    arrays plus an {!Ftes_pareto.Archive.merge} fold of their frontier
    points — proven bit-identical to running the whole population
    sequentially (the population slices are bit-identical by
    construction, per-application optimizations are independent, and
    the archive's content is insertion-order independent).

    The merged document deliberately excludes wall-clock times so its
    {!fingerprint} depends only on the results: a sequential reference
    run and a sharded campaign of the same manifest produce the same
    fingerprint byte for byte — the property the [campaign/*] verifier
    rules and the campaign tests (in-process and over worker
    processes) enforce. *)

type merged_cell = {
  key : Ftes_exp.Synthetic.cell_key;
  costs : float option array;  (** length [apps], population order. *)
  frontier : Ftes_pareto.Archive.t;
  elapsed_s : float;  (** summed over shards; not serialized. *)
}

type t = {
  manifest_fingerprint : string;
  cells : merged_cell list;  (** manifest cell order. *)
}

val of_checkpoints :
  manifest:Manifest.t -> Checkpoint.t list -> (t, string) result
(** Merge the campaign from its shard checkpoints.  [Error] unless the
    list holds exactly shards [0 .. shards-1] (any order), all
    complete and stamped with the manifest's fingerprint. *)

val run_sequential : manifest:Manifest.t -> t
(** The reference: generate the full population once and run every
    cell sequentially, bypassing shards and checkpoints entirely. *)

val to_json : t -> Ftes_util.Json.t

val fingerprint : t -> string

val equal : t -> t -> bool
(** Same fingerprint and — independently — same costs and
    {!Ftes_pareto.Archive.equal} frontiers cell by cell. *)

val filename : string
(** ["merged.json"]. *)

val save : dir:string -> t -> unit
