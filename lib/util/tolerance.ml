(* The single home of the floating-point comparison slop used across the
   scheduler, the schedule validator and the static verifier.  Times are
   milliseconds of order 1..1e3, so absolute 1e-9 sits comfortably above
   accumulated binary rounding noise while staying far below any real
   slack; costs are small integers scaled the same way. *)

let time_eps_ms = 1e-9

let cost_eps = 1e-9

(* Probabilities are compared after the 1e-11 grain rounding of
   {!Rounding}; 1e-15 distinguishes genuine violations from the last-bit
   noise of the unrounded reference values. *)
let prob_eps = 1e-15

let leq ?(eps = time_eps_ms) a b = a <= b +. eps

let lt ?(eps = time_eps_ms) a b = a < b -. eps

let gt ?(eps = time_eps_ms) a b = b < a -. eps

let approx ?(eps = time_eps_ms) a b = Float.abs (a -. b) <= eps
