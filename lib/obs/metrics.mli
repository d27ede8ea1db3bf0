(** Process-wide metrics registry: named counters, gauges and log-scale
    histograms.

    Instruments are registered once by name ({!counter}, {!gauge},
    {!histogram} are idempotent find-or-create) and updated with
    atomics, so hot paths pay one atomic read-modify-write per update
    and no lock.  Updates from {!Ftes_par.Pool} workers land in the
    same instruments — "merging" across domains is the atomic
    accumulation itself, and {!snapshot} observes a consistent
    monotone view.

    The registry only {e observes} the optimizer: no instrument ever
    feeds a value back into a computation, which is the determinism
    argument for the whole observability layer (DESIGN.md §9). *)

type counter

type gauge

type histogram

val counter : string -> counter
(** Find or create.  Raises [Invalid_argument] if the name is already
    registered as a different kind. *)

val gauge : string -> gauge

val histogram : string -> histogram

val incr : counter -> unit

val add : counter -> int -> unit
(** Raises [Invalid_argument] on negative increments: counters are
    monotone by contract. *)

val counter_value : counter -> int

val reset_counter : counter -> unit
(** Zero one counter (benchmark sections); see also {!reset}. *)

val set : gauge -> float -> unit

val observe : histogram -> int -> unit
(** Record one observation (clamped to [>= 0]) into the bucket
    [floor (log2 v)] — log-scale, sized for nanosecond latencies. *)

val bucket_of_value : int -> int
(** Bucket index an observation lands in (exposed for tests). *)

(** {1 Snapshots} *)

type hist_snapshot = { buckets : int array; count : int; sum : int }

type snapshot = {
  counters : (string * int) list;  (** sorted by name. *)
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

val snapshot : unit -> snapshot
(** Consistent-enough view for reporting: each instrument is read
    atomically; a histogram's [count] never exceeds the bucket sum it
    is derived from. *)

val find_counter : snapshot -> string -> int option

val find_histogram : snapshot -> string -> hist_snapshot option

val hist_count : hist_snapshot -> int

val hist_sum : hist_snapshot -> int

val hist_mean : hist_snapshot -> float

val hist_quantile : hist_snapshot -> float -> float
(** Upper bound of the bucket holding the q-quantile (factor-of-2
    resolution). *)

val reset : unit -> unit
(** Zero every instrument, keeping registrations.  For benchmarks and
    tests that measure one section at a time. *)
