(** Deterministic, seeded fault injection for the empirical measurement
    substrate.

    The paper's premise is that every surviving candidate is actually
    executed and timed on the target machine — and real machines are
    hostile: timings are noisy, runs fail or hang, and measurements are
    occasionally corrupted outright.  A {!t} is a {e fault plan}: a
    seeded description of that hostility that the evaluation engine
    injects around the (deterministic) simulator.  It is both the test
    harness for the engine's resilient measurement protocol and a
    realism knob for experiments (the noise-sensitivity study).

    Every random decision is drawn from a splitmix64 stream keyed by
    [(seed, candidate key, trial, attempt)], so the injected faults are
    a pure function of the candidate — bit-identical in any evaluation
    order and on any platform. *)

type t = {
  active : bool;  (** [false] = {!none}: the plan injects nothing *)
  seed : int;
  noise : float;
      (** sigma of multiplicative log-normal timing noise (0 = exact) *)
  transient : float;  (** probability an attempt fails transiently *)
  hang : float;
      (** probability an attempt hangs (simulated-cycle overrun,
          surfaced as a timeout) *)
  outlier : float;
      (** probability a measurement is corrupted into a large outlier *)
  outlier_factor : float;  (** cycle multiplier of a corrupted measurement *)
}

(** The inactive plan: no draws, no perturbation.  An engine configured
    with [none] behaves bit-for-bit like one with no fault layer. *)
val none : t

(** Build an active plan.  All rates default to 0, [outlier_factor] to
    25; a plan with every rate and [noise] at zero still exercises the
    full measurement protocol (draws, trials, aggregation) without
    changing any result — that is what the protocol-overhead benchmark
    runs.  @raise Invalid_argument on rates outside [0,1], negative
    [noise], or [outlier_factor < 1]. *)
val make :
  ?seed:int ->
  ?noise:float ->
  ?transient:float ->
  ?hang:float ->
  ?outlier:float ->
  ?outlier_factor:float ->
  unit ->
  t

(** Parse a plan from a comma-separated spec, e.g.
    ["seed=7,noise=0.05,transient=0.02,hang=0.01,outlier=0.01"].
    Keys: [seed], [noise], [transient], [hang], [outlier],
    [outlier_factor].  @raise Invalid_argument on unknown keys or
    malformed values. *)
val of_spec : string -> t

(** Canonical spec string ([of_spec (to_spec t) = t]); ["none"] for the
    inactive plan. *)
val to_spec : t -> string

(** Can the plan change a measurement's {e value} (noise or outlier
    corruption)?  False for zero-rate active plans: they exercise the
    protocol but every sample equals the clean measurement, so
    value-dependent machinery (e.g. a confirmation pass over the
    leaderboard) is pointless for them. *)
val noisy : t -> bool

val pp : Format.formatter -> t -> unit

(** What the plan does to one measurement attempt. *)
type fate =
  | Sample of float
      (** the attempt yields a measurement; multiply its cycles by the
          factor (1.0 = clean) *)
  | Transient_failure  (** the attempt fails; retrying may succeed *)
  | Hang  (** the attempt overruns its deadline *)

(** [draw t ~key ~trial ~attempt] is the fate of one measurement
    attempt of the candidate identified by [key].  Pure: the same
    arguments always produce the same fate. *)
val draw : t -> key:string -> trial:int -> attempt:int -> fate

(** {2 Service-level fault plans}

    Fault plans for the autotuning daemon ([lib/serve]): hostility at
    the service boundary rather than inside one measurement.  Drawn
    from the same keyed splitmix64 streams (keyed by [(seed, session,
    event index)]), so an injected service fault is a pure function of
    the session — deterministic under any request interleaving. *)
module Service : sig
  type t = {
    active : bool;  (** [false] = {!Service.none}: nothing injected *)
    seed : int;
    hang : float;  (** probability a measurement batch hangs (stalls) *)
    hang_s : float;  (** how long an injected hang stalls, in seconds *)
    disconnect : float;
        (** probability the client disconnects at a progress event *)
    kill_after : int option;
        (** SIGKILL the daemon after this many batch boundaries —
            crash-only recovery injection *)
  }

  val none : t

  (** @raise Invalid_argument on rates outside [0,1], negative [hang_s]
      or [kill_after < 1]. *)
  val make :
    ?seed:int ->
    ?hang:float ->
    ?hang_s:float ->
    ?disconnect:float ->
    ?kill_after:int ->
    unit ->
    t

  (** Parse from a comma-separated spec, e.g.
      ["seed=7,hang=0.2,hang_s=0.05,disconnect=0.1,kill_after=12"].
      @raise Invalid_argument on unknown keys or malformed values. *)
  val of_spec : string -> t

  (** Canonical spec string; ["none"] for the inactive plan. *)
  val to_spec : t -> string

  (** Does batch number [batch] of [session] hang?  Pure. *)
  val hangs : t -> session:string -> batch:int -> bool

  (** Does the client disconnect at progress event [event]?  Pure. *)
  val disconnects : t -> session:string -> event:int -> bool
end

(** {2 Aggregation of repeated measurements}

    Pure helpers used by the engine's [--trials] protocol and unit-tested
    directly. *)

(** Median ([n >= 1]; mean of the two middle elements when [n] is even).
    @raise Invalid_argument on an empty array. *)
val median : float array -> float

(** Robust location estimate of repeated measurements: the median for
    fewer than 5 samples, otherwise the trimmed mean discarding
    [max 1 (n/5)] samples at each end — so a single corrupted outlier
    never reaches the aggregate.  @raise Invalid_argument on empty. *)
val aggregate : float array -> float

(** Relative spread [(max - min) / |median|] (0 for fewer than 2
    samples or a zero median) — the adaptive early-stop criterion. *)
val rel_spread : float array -> float
