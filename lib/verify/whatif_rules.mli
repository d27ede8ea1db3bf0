(** Rules over the what-if (warm-start) blocks of a design-service
    response stream.

    A warm-started optimize response carries a
    {!Ftes_whatif.Reuse.t} report under [telemetry.whatif]; these
    rules audit every such block in a captured stream:

    - [whatif/reuse]: the block decodes, names a known delta class,
      all counters are non-negative, and the replayed prefix fits
      inside the trail.
    - [whatif/verdict]: a warm-started response still carries an
      optimize verdict ([feasible] / [no-solution]) and a feasible
      payload reports at least one explored architecture — the
      bit-identity contract says a warm answer is indistinguishable
      from a cold one.

    Responses without a reuse block are ignored, so these rules
    compose with {!Serve_rules.all} over mixed streams. *)

val all : Rule.t list
