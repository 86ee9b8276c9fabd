(** Log of every empirical experiment the search runs — the data behind
    the paper's §4.3 search-cost comparison.

    Only {e fresh} evaluations become entries.  Replays served from the
    evaluation engine's memo table are counted separately via
    {!note_hit}, and candidates pruned by the phase-1 constraints
    (rejected without any simulation) via {!note_pruned} — so {!points},
    the paper's search-cost metric, provably excludes memoized replays
    and model-pruned candidates. *)

type entry = {
  variant : string;
  bindings : (string * int) list;
  prefetch : (string * int) list;
  cycles : float;
  mflops : float;
}

type t

val create : unit -> t

(** Record a fresh (actually simulated) evaluation. *)
val record : t -> entry -> unit

(** Count a memo hit: the point was requested again but not re-simulated. *)
val note_hit : t -> unit

(** Count a candidate rejected by the phase-1 constraints before any
    simulation — the model pruning that keeps the search small. *)
val note_pruned : t -> unit

(** Count a candidate whose evaluation failed (bad instantiation,
    measurement crash, timeout, quarantine) — kept apart from the
    constraint-pruned count so real failures stay visible. *)
val note_failed : t -> unit

(** Count a candidate skipped by the engine's analytical pre-filter:
    feasible, ranked outside the batch top-k by the model, never
    simulated (and not memoized — a later request may still measure
    it). *)
val note_prefiltered : t -> unit

(** Count a point served from the persistent performance database: the
    exact fingerprint (under the same measurement context) was on disk
    from a previous run, so no simulation ran.  Kept apart from
    {!note_hit} so cross-run reuse is visible separately from the
    per-run memo. *)
val note_db_hit : t -> unit

(** Count a transferred warm-start seed: a nearest-neighbor database
    point rescaled to this problem and force-simulated as a search
    anchor. *)
val note_warm_start : t -> unit

(** Count a candidate priced by the incremental prefetch repricer
    instead of a full replay: its cost estimate came from the slack
    model of its sweep group's base plan, and it was never simulated
    (nor memoized — a later request may still measure it). *)
val note_repriced : t -> unit

(** Count a leaderboard candidate confirmed by an exact re-measurement
    at the end of a sampled search. *)
val note_confirmed : t -> unit

(** Count a leaderboard candidate whose exact confirmation was skipped
    by the adaptive-confirmation policy (the sampled estimator's rank
    record on this kernel earned a smaller confirm set). *)
val note_confirm_skipped : t -> unit

val entries : t -> entry list

(** Number of distinct points evaluated (cache hits excluded). *)
val points : t -> int

(** Synonym for {!points}: fresh evaluations only. *)
val fresh : t -> int

(** Memoized replays served without re-simulation. *)
val hits : t -> int

(** Candidates rejected by constraints without simulation. *)
val pruned : t -> int

(** Candidates whose evaluation failed (typed reasons live in the
    engine's stats). *)
val failed : t -> int

(** Candidates skipped by the analytical pre-filter (never simulated). *)
val prefiltered : t -> int

(** Points served from the persistent performance database. *)
val db_hits : t -> int

(** Transferred warm-start seeds force-simulated as anchors. *)
val warm_starts : t -> int

(** Candidates priced by the incremental repricer without replay. *)
val repriced : t -> int

(** Leaderboard candidates confirmed exactly after a sampled search. *)
val confirmed : t -> int

(** Leaderboard confirmations skipped by the adaptive policy. *)
val confirm_skipped : t -> int

(** Wall-clock seconds since [create]. *)
val seconds : t -> float

val best : t -> entry option
