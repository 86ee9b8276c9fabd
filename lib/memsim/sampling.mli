(** Sampled simulation: replay only periodic windows of the packed
    event stream and extrapolate the counters, SimPoint-style.

    A sampling spec drives a small state machine (the {!sampler}) that
    classifies each successive event of a measured replay into one of
    three actions:

    - [Measure] — replay with full accounting ({!Hierarchy.replay_packed}
      semantics);
    - [Warm] — replay state-only ({!Hierarchy.warm_packed} semantics), to
      re-warm cache/TLB contents after a skipped stretch;
    - [Drop] — skip entirely.

    The stream alternates a measured window of [window] events with a
    gap of [gap] events, of which the last [warm] are replayed
    state-only so the next window starts from representative cache
    contents.  The measured counters are then scaled by
    [fed / measured] to estimate the full-replay counters.

    The same sampler drives {!Hierarchy.replay_sampled} and the
    incremental re-pricer's walk ([Core.Demand_trace.reprice_group]),
    so both make identical window decisions for the same event
    stream. *)

type t = {
  shrink : int;
      (** divide the VM flop budget by this before tracing (1 = trace
          the full budget); the executor's flop-scale extrapolation
          recovers full-run magnitudes *)
  window : int;  (** measured events per period *)
  gap : int;  (** skipped events between measured windows *)
  warm : int;  (** trailing events of each gap replayed state-only *)
}

(** [shrink=8, window=4096, gap=28672, warm=2048]: measure 1/8 of the
    traced events, on a trace 1/8 the exact-path length. *)
val default : t

(** Clamp a spec into validity: [shrink >= 1], [window >= 1],
    [gap >= 0], [0 <= warm <= gap].  [gap = 0] degenerates to full
    replay of the (possibly shrunken) trace. *)
val clamp : t -> t

(** Parse a comma-separated spec like ["shrink=4,window=8192"];
    unmentioned fields keep their {!default}.  Raises
    [Invalid_argument] on malformed input or unknown keys. *)
val parse : string -> t

val to_string : t -> string

(** Cap on the state-only replay of a sampled measurement's cold
    warm-up prefix: only the trailing [window + gap] events of the
    prefix are fed to the hierarchy (the rest are skipped outright).
    Mid-stream, every measured window trusts at most one period of
    history, so a full period of true state-only history leaves the
    first window's state at least as representative as any later
    window's; prefixes no longer than one period replay in full, making
    small-budget estimates bit-identical to the uncapped behaviour.
    All sampled replay paths (direct, from-trace, and the re-pricer's
    walk) apply the same cap to the same stream positions, so their
    estimates stay bit-identical to each other. *)
val prefix_cap : t -> int

type action = Measure | Warm | Drop

(** Mutable window cursor over one event stream. *)
type sampler

(** A fresh sampler (clamps the spec); streams start in a measured
    window. *)
val sampler : t -> sampler

(** [take s n] classifies the next run of events: returns how many of
    the next [n] events (1 <= k <= n) it covers, advances the cursor
    past them, and leaves the run's action in {!action}.  Allocates
    nothing. *)
val take : sampler -> int -> int

(** The action of the run the latest {!take} covered. *)
val action : sampler -> action

(** Events consumed so far. *)
val fed : sampler -> int

(** Events consumed inside measured windows so far. *)
val measured : sampler -> int

(** Events consumed in [Measure] or [Warm] runs so far: the ones a
    replay feeds to the hierarchy. *)
val replayed : sampler -> int

(** Extrapolation factor [fed / measured] (1.0 before anything was
    measured). *)
val factor : sampler -> float
