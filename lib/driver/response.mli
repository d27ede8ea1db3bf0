(** One response line of the design service: a versioned envelope
    around the same certified payload the CLI emits, plus per-request
    telemetry.

    Wire format (one minified JSON object per line):

    {v
    {"schema_version": 1, "id": "r1", "seq": 0, "verdict": "feasible",
     "payload": { ... }, "telemetry": {"queue_wait_ns": ..., ...}}
    v}

    The {e payload} is the deterministic part: byte-identical to the
    JSON report of the corresponding one-shot CLI invocation (the
    property the differential tests pin).  The {e telemetry} carries timing and cache statistics and
    is excluded from every fingerprint. *)

(** Typed outcome of a request, the envelope's ["verdict"] field.

    [Feasible]/[No_solution] map to CLI status 0, [Infeasible] (a
    proof, with witnesses in the payload) and [Lint_failure] to
    status 3, exactly the {!Lifecycle.exit_code} conventions; [Failed]
    marks a request that never executed (parse error, unknown version,
    exhausted budget) and carries a message instead of a payload. *)
type verdict = Feasible | No_solution | Infeasible | Lint_failure | Failed

val verdict_name : verdict -> string
(** ["feasible"], ["no-solution"], ["infeasible"], ["lint-failure"],
    ["error"]. *)

val exit_of_verdict : verdict -> Lifecycle.exit_code
(** The status a one-shot CLI run requests for this outcome ([Failed]
    maps to [Success]: the CLI surfaces execution errors through its
    own error channel before any exit-code mapping). *)

type telemetry = {
  queue_wait_ns : int;  (** read-to-execution latency of the request. *)
  wall_ns : int;  (** execution time of the request alone. *)
  sfp_hits : int;  (** process-wide SFP-cache totals at batch end… *)
  sfp_misses : int;  (** …monotone in [seq] by construction. *)
  eval_hits : int;  (** candidate-evaluation cache totals, ditto. *)
  eval_misses : int;
  cache_problems : int;
      (** distinct problem/policy cache keys the daemon holds. *)
  registry_hits : int;
      (** recorded-walk registry totals (what-if warm starts), monotone
          like the cache counters; wire object ["registry"], absent in
          pre-whatif envelopes and parsed as 0 then. *)
  registry_misses : int;
  reuse : Ftes_whatif.Reuse.t option;
      (** what-if reuse report (wire key ["whatif"]), present exactly
          on warm-started responses.  Telemetry, so fingerprint-excluded
          like everything else in this record. *)
}

type t = {
  id : string;  (** echoed from the request ([""] if unparseable). *)
  seq : int;  (** 0-based position in the response stream. *)
  verdict : verdict;
  payload : Ftes_util.Json.t;  (** [Object []] for [Failed]. *)
  error : string option;  (** present exactly when [verdict = Failed]. *)
  telemetry : telemetry option;
}

val to_json : t -> Ftes_util.Json.t

val to_line : t -> string
(** Minified single-line {!to_json} — the JSONL wire form. *)

val of_json : ?on_warning:(string -> unit) -> Ftes_util.Json.t -> (t, string) result
(** Parse an envelope back (audits, golden tests).  Follows the
    {!Ftes_util.Versioned_json} conventions. *)

val of_string : ?on_warning:(string -> unit) -> string -> (t, string) result

val fingerprint : t -> string
(** The deterministic identity of a response: verdict, id and minified
    payload — telemetry and seq excluded.  Two runs of the same
    request must produce equal fingerprints whatever the pool size,
    cache state or batching. *)
