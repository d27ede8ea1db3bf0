(** Offline audit of {!Ftes_analyze} pre-flight certificates.

    Each rule re-derives the analysis from the subject's problem under
    the certificate's recorded premises — no optimizer runs and nothing
    from the certificate feeds its own check — and compares claim by
    claim: summary and premises against the problem, bound tables
    against a fresh {!Ftes_analyze.Preflight.run}, the feasibility
    verdict and witnesses against the re-derivation, and the cost lower
    bound against every cost the subject actually achieved (attached
    design, recorded OPT, frontier points).

    Rule ids: [analyze/schema], [analyze/bounds], [analyze/verdict],
    [analyze/lower-bound]. *)

val all : Rule.t list
