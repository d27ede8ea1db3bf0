(** Per-shard campaign checkpoints.

    A worker streams its results into [dir/shard-NNN.json]: after every
    completed cell the whole checkpoint is rewritten through
    {!Ftes_util.Atomic_file}, so the file on disk is always a complete,
    parsable document — a kill between cells loses at most the cell in
    flight.  [complete] is stamped in the same write as the last cell,
    so a checkpoint never claims every cell without being complete.

    Loading re-validates everything against the manifest: the schema
    version, the manifest {!Manifest.fingerprint}, the shard's
    application range, the cell keys (which must be a prefix of
    {!Manifest.cells} in order), the cost-array lengths, and every
    frontier point's design, through the checked
    {!Ftes_model.Design.make} against its application's
    {!Manifest.problem}.  The fingerprint and problems come from the
    manifest's plan, so loading many checkpoints of one campaign
    derives them once.  Corruption of any kind surfaces as [Error],
    never an exception. *)

type cell_result = {
  key : Ftes_exp.Synthetic.cell_key;
  costs : float option array;
      (** per application of the shard's range, in index order;
          [None] = infeasible. *)
  points : (int * Ftes_pareto.Archive.point) list;
      (** feasible applications' frontier points, tagged with absolute
          application indices in [\[lo, hi)]. *)
  elapsed_s : float;
}

type t = {
  manifest_fingerprint : string;
  shard : int;
  lo : int;
  hi : int;
  complete : bool;
  cells : cell_result list;  (** prefix of the manifest's cell grid. *)
}

val path : dir:string -> int -> string
(** [dir/shard-NNN.json]. *)

val create : manifest:Manifest.t -> shard:int -> t
(** Empty (no cells, incomplete) checkpoint for the shard. *)

val to_json : t -> Ftes_util.Json.t

val costs_to_json : float option array -> Ftes_util.Json.t
(** Per-application costs as a JSON list, [None] (infeasible) as
    [null] — also the spelling of {!Merge}'s merged cost arrays. *)

val of_json : manifest:Manifest.t -> Ftes_util.Json.t -> (t, string) result

val save : dir:string -> t -> unit
(** Atomic write of {!path}. *)

val load : manifest:Manifest.t -> dir:string -> int -> (t, string) result
(** Read and validate shard [i]'s checkpoint.  [Error] when the file is
    missing, unparsable, from another campaign, or inconsistent with
    the manifest. *)
