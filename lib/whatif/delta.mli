(** The typed delta algebra for warm-start what-if queries.

    A [Delta.t] is a single-field perturbation of a {!Ftes_model.Problem.t}
    — one deadline tightened, one WCET bumped, one SER changed, one
    processor added.  Interactive exploration traffic is dominated by
    such near-duplicates, and the Fig.5 walk is naturally incremental: a
    perturbation invalidates only the touched nodes' exceedance vectors
    and the memo entries whose keys reach into the edited table cells.

    [apply] rebuilds the perturbed problem through the model's checked
    constructors, so a delta can never produce an instance the cold path
    would reject.  Untouched float arrays are passed through physically,
    which is what makes warm-vs-cold bit-identity possible at all: the
    perturbed problem's unedited tables are the {e same bits} a cold
    load would see.

    [footprint] is the classifier: it maps a delta to the exact set of
    cache keys it can influence, phrased as cleanliness predicates over
    (node, level) table cells plus a library-index remap.  Everything
    the predicates call clean is provably unaffected — the survival
    argument for each class is spelled out in DESIGN.md §15 — so
    migration keeps those entries and the warm walk replays them
    verbatim. *)

type t =
  | Deadline_set of float  (** Replace the global deadline [D] (ms). *)
  | Deadline_scale of float  (** Multiply [D] by a positive factor. *)
  | Period_set of float  (** Replace the period [T] (ms). *)
  | Period_scale of float  (** Multiply [T] by a positive factor. *)
  | Gamma_set of float  (** Replace the reliability goal [gamma]. *)
  | Wcet_scale of { node : int; factor : float }
      (** Scale every WCET of library node [node] (all levels, all
          processes) by a positive factor — a per-node derating. *)
  | Ser_scale of { node : int; factor : float }
      (** Scale every failure probability of library node [node] by a
          positive factor — a raw-SER change for one node type. *)
  | Hversion_cost_set of { node : int; level : int; cost : float }
      (** Replace [Cjh] for one h-version. *)
  | Hversion_wcet_set of { node : int; level : int; proc : int; wcet_ms : float }
      (** Replace one [tijh] table cell. *)
  | Hversion_pfail_set of { node : int; level : int; proc : int; pfail : float }
      (** Replace one [pijh] table cell. *)
  | Node_add of Ftes_model.Platform.node_type
      (** Append a node type to the library. *)
  | Node_remove of int  (** Remove library node [j]; higher indices shift down. *)
  | Kmax_set of int
      (** Change the re-execution cap.  The problem instance itself is
          untouched; [kmax_override] carries the new cap to the config. *)

val class_name : t -> string
(** Stable kebab-case tag, e.g. ["deadline-scale"] — the wire spelling
    of the ["class"] field and the bench/telemetry label. *)

val class_names : string list
(** Every [class_name], for verifier rules and exhaustive tests. *)

val apply : Ftes_model.Problem.t -> t -> (Ftes_model.Problem.t, string) result
(** Build the perturbed problem.  Goes through the checked constructors
    ({!Ftes_model.Platform.hversion}, {!Ftes_model.Platform.node_type},
    {!Ftes_model.Application.make}, {!Ftes_model.Problem.make}), so
    range violations — a pfail pushed out of [\[0,1)], a cost edit that
    breaks hardening monotonicity, removing the last library node —
    surface as [Error] rather than a corrupt instance.  [Kmax_set]
    returns the problem unchanged. *)

val kmax_override : t -> int option
(** [Some k] for [Kmax_set k]; [None] otherwise. *)

(** The invalidation footprint: which cache keys a delta can reach.

    [node_map] remaps a base library index to its perturbed index, or
    [None] when the node is gone (entries mentioning it must drop).
    [tables_dirty] marks (node, level) cells whose WCET or cost changed;
    [pfail_dirty] marks cells whose failure probability changed.  All
    indices are in the {e base} problem's numbering. *)
type footprint = {
  node_map : int -> int option;
  tables_dirty : node:int -> level:int -> bool;
  pfail_dirty : node:int -> level:int -> bool;
  eval_policy : [ `Keep | `Drop | `Remap_slack of float ];
      (** [`Keep]: an eval-memo entry survives iff every slot is clean
          under both dirtiness predicates.  [`Drop]: no entry survives
          (the delta moved a global the stored result bakes in — period,
          gamma, kmax).  [`Remap_slack d]: deadline-only delta — results
          survive with [slack] rewritten to [d -. schedule_length],
          which is bit-identical to recomputation because the schedule
          itself never reads the deadline. *)
  keep_probes : bool;
      (** Probe memos store escalation decisions that range over {e all}
          levels of their members, so they survive only class-wise: kept
          iff the delta touches neither any level of any member nor a
          global the climb reads (deadline, period, gamma, kmax). *)
}

val footprint : Ftes_model.Problem.t -> t -> footprint
(** Classify [delta] against the base problem it will be applied to. *)

val to_json : t -> Ftes_util.Json.t
val of_json : Ftes_util.Json.t -> (t, string) result
(** Wire codec: an object tagged by ["class"], e.g.
    [{"class": "wcet-scale", "node": 0, "factor": 1.1}].  [of_json]
    validates ranges eagerly (positive factors, 0-based indices), but
    index bounds against a concrete problem are checked by [apply]. *)
