(** One unit of work for the design service: a problem plus a
    subcommand configuration, parsed from a versioned JSON envelope.

    Wire format (one JSON object per line in daemon traffic):

    {v
    {"schema_version": 1, "id": "r1", "command": "optimize",
     "strategy": "opt", "example": "cc"}
    {"schema_version": 1, "id": "r2", "command": "pareto",
     "eps": 0.5, "objectives": "cost,slack", "problem": { ... }}
    v}

    - ["command"]: ["analyze"], ["optimize"], ["exact"] or ["pareto"];
    - ["strategy"] (default ["opt"]): ["opt"], ["min"] or ["max"];
    - the problem comes from ["problem"] (an inline
      {!Ftes_model.Problem_io} v1 document) or ["example"] (a built-in
      name), exactly one of the two;
    - ["slack"] (default ["shared"]): ["shared"], ["conservative"] or
      ["dedicated"]; ["bus"] (default ["fcfs"]): ["fcfs"] or
      [{"tdma": {"slot_ms": 2.0}}]; ["kmax"]: the re-execution bound;
    - command options: ["limit"] (exact), ["eps"] / ["objectives"] /
      ["ref_cost"] (pareto);
    - what-if options (optimize only): ["delta"] (a
      {!Ftes_whatif.Delta} document) perturbs the problem before
      optimization, and ["base_id"] names an earlier optimize request
      whose recorded walk the answer warm-starts from — with a
      ["base_id"], ["problem"]/["example"] may be omitted entirely and
      the base's problem is resolved from the session registry.

    The envelope follows the {!Ftes_util.Versioned_json} conventions:
    versionless requests are accepted as v0 with a warning, unknown
    versions are rejected (with a structured error response, not a
    daemon crash).  Unknown {e fields} in a known version are ignored
    with a warning — never rejected — so envelope growth cannot strand
    an older daemon. *)

type command =
  | Analyze
  | Optimize
  | Exact of { limit : int option }
  | Pareto of {
      eps : float;
      objectives : Ftes_pareto.Objective.t list;
      ref_cost : float option;
    }

type whatif = {
  base_id : string option;
      (** earlier optimize request to warm-start from; [None] means the
          base walk is computed cold in the same request. *)
  delta : Ftes_whatif.Delta.t;
}

type t = {
  id : string;  (** echoed verbatim in the response envelope. *)
  command : command;
  strategy : string;  (** ["opt"], ["min"] or ["max"]. *)
  config : Ftes_core.Config.t;
      (** fully resolved: strategy policy, slack, bus, kmax. *)
  problem : Ftes_model.Problem.t;
      (** for a what-if request, the {e base} problem; the delta is
          applied by {!Exec.run}. *)
  origin : [ `Example of string | `Inline | `Base of string ];
  source : string;
      (** the subject string reports carry: ["example:cc"],
          ["inline:<application name>"] or ["base:<request id>"]. *)
  whatif : whatif option;  (** optimize-only perturbation envelope. *)
}

val schema_version : int

val problem_of_example : string -> (Ftes_model.Problem.t, string) result
(** The built-in problems ([fig1], [fig3], [cc] / [cruise-control]). *)

val config_of_strategy : string -> (Ftes_core.Config.t, string) result

val of_json :
  ?on_warning:(string -> unit) ->
  ?resolve_base:(string -> Ftes_model.Problem.t option) ->
  Ftes_util.Json.t ->
  (t, string) result

val of_string :
  ?on_warning:(string -> unit) ->
  ?resolve_base:(string -> Ftes_model.Problem.t option) ->
  string ->
  (t, string) result
(** Parse one request line.  Never raises: malformed JSON, unknown
    versions/commands and invalid problems all come back as [Error].
    [resolve_base] maps a ["base_id"] to its recorded problem when the
    request carries no ["problem"]/["example"] of its own; without a
    resolver such requests are rejected. *)

val to_json : t -> Ftes_util.Json.t
(** Re-emit the request (inline problems are embedded as full
    documents); [of_string (to_string r)] resolves to an equivalent
    request.  Used by the load generator and the golden files. *)

val to_string : t -> string
(** Minified single-line {!to_json}, ready for JSONL. *)

val make :
  ?id:string ->
  ?strategy:string ->
  ?slack:Ftes_sched.Scheduler.slack_mode ->
  ?bus:Ftes_sched.Bus.policy ->
  ?kmax:int ->
  ?whatif:whatif ->
  command ->
  [ `Example of string | `Problem of Ftes_model.Problem.t ] ->
  (t, string) result
(** Programmatic constructor used by tests and perfbench (same
    validation as the wire path). *)
