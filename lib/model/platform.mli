(** The platform model: computation nodes with h-versions.

    Each node type [Nj] of the library comes in several versions
    [Njh] with hardening level [h = 1 .. levels].  A version carries its
    cost [Cjh] and, for every process [Pi] of the application, the
    worst-case execution time [tijh] and the single-execution failure
    probability [pijh] (Section 2).  The tables are per-application:
    WCETs come from worst-case analysis tools and failure probabilities
    from fault-injection experiments — in this reproduction, from
    {!Ftes_faultsim} or from the closed-form SER model of the
    generators. *)

type hversion = {
  level : int;  (** 1-based hardening level [h]. *)
  cost : float;  (** [Cjh], in abstract cost units. *)
  wcet_ms : float array;  (** [tijh] per process index [i]. *)
  pfail : float array;  (** [pijh] per process index [i]. *)
}

type node_type = {
  node_name : string;
  versions : hversion array;  (** index [h-1] holds level [h]. *)
}

val hversion :
  level:int -> cost:float -> wcet_ms:float array -> pfail:float array -> hversion
(** Checked constructor: positive finite WCETs, probabilities in
    [\[0,1)], equal table lengths, positive cost. *)

val node_type : name:string -> versions:hversion array -> node_type
(** Checked constructor: at least one version, levels are exactly
    [1, 2, ...] in order, all versions agree on the process count, and
    hardening is monotone — cost strictly increases with the level and
    every process's failure probability is non-increasing in the
    level. *)

val levels : node_type -> int
(** Number of available h-versions. *)

val n_processes : node_type -> int
(** Width of the WCET / failure tables. *)

val version : node_type -> level:int -> hversion
(** [version nt ~level] with a 1-based level; raises [Invalid_argument]
    when out of range. *)

val mean_wcet : node_type -> level:int -> float
(** Average WCET over all processes — the "speed" used to order
    architectures from fastest to slowest in {!Ftes_core.Design_strategy}. *)
