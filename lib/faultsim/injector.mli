(** Monte-Carlo fault injection (GOOFI-style campaign, our substitute
    for the tools of [1, 18]).

    A campaign repeatedly "executes" a process under the Poisson strike
    model of {!Fault_model} and records whether any unmasked strike hit
    the execution window.  The resulting estimate of the process failure
    probability converges to {!Fault_model.failure_probability}; the
    test-suite asserts agreement within the Wilson confidence bounds. *)

type estimate = {
  trials : int;
  failures : int;
  p_hat : float;  (** point estimate, failures / trials. *)
  ci_low : float;
  ci_high : float;  (** 95% Wilson interval. *)
}

val estimate_pfail :
  Ftes_util.Prng.t ->
  Fault_model.t ->
  duration_ms:float ->
  trials:int ->
  estimate
(** A full campaign.  Raises [Invalid_argument] if [trials <= 0]. *)

val importance_boost : Fault_model.t -> target_p:float -> Fault_model.t * float
(** Fault rates of interest (1e-10 per cycle) are far too rare to hit by
    naive sampling.  [importance_boost model ~target_p] returns a model
    whose rate is scaled so a single execution fails with probability
    roughly [target_p], together with the scale factor applied; the
    caller divides the estimated probability by the factor to recover
    the unboosted estimate (valid in the linear, rare-event regime). *)
