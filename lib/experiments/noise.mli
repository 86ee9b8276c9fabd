(** Extension experiment — noise sensitivity of the guided search.

    The paper's search trusts every empirical measurement; real machines
    return noisy, occasionally corrupted timings.  This experiment
    quantifies how much that costs: tune under seeded measurement faults
    (log-normal timing noise of increasing sigma plus a transient
    failure rate, absorbed by the engine's trials/retry protocol), then
    re-measure each chosen point on a {e clean} engine and report its
    true degradation against the fault-free optimum.  The robustness
    claim is that moderate noise (sigma up to ~10%) degrades the found
    optimum by well under 10%. *)

type entry = {
  kernel : string;
  sigma : float;  (** injected log-normal noise sigma (0 = fault-free) *)
  trials : int;
      (** repeated measurements per candidate, scaled with sigma^2 to
          hold the aggregate's noise roughly constant *)
  mflops : float;  (** true (clean-engine) MFLOPS of the chosen point *)
  degradation_pct : float;
      (** true cycles of the chosen point vs the fault-free optimum, in
          percent (0 = found the same-quality point) *)
  points : int;  (** fresh evaluations the faulty search ran *)
  retries : int;  (** protocol retries it absorbed *)
}

val run : ?machine:Machine.t -> unit -> entry list
val render : entry list -> string list
