(** Phase 2: model-guided empirical search (paper §3.2).

    For one variant, the search proceeds in stages:

    + {b tiling parameters} — stage 1 searches the unroll (register-tile)
      factors, stage 2 the cache-tile sizes, each starting from the
      model's initial point (uniform values filling the heuristic
      footprint), walking tile {e shapes} (double one dimension, halve
      another) at constant footprint, halving the footprint when no shape
      improves, then refining each parameter linearly;
    + {b prefetching} — for each array (including copy temporaries), try
      distance 1; if it helps, grow the distance while it keeps helping
      and keep the smallest best, otherwise drop the prefetch;
    + {b adjustment} — with prefetching in place, try growing the
      innermost tile (prefetching favours longer streams), re-checking
      the constraints.

    {!tune_variant} picks one of three drivers, each a stage sequence
    of its own: the staged search above (the default); an {e armed}
    search when the engine's analytical pre-filter is on, which
    proposes each stage as one wide grid for the pre-filter to rank,
    followed by forced anchor points, a capped refinement and a
    fixed-order prefetch greedy; and a {e warm} start when a
    performance database offers a nearby recorded search, which
    measures the transferred points as anchors and refines around the
    best.  A sampled or noisy search then confirms its leaderboard
    exactly.  The drivers share one copy of each move: a {e sweep}
    measures an independent neighbourhood as one engine batch (the
    shape walk, the linear refinement, a grid, a prefetch sweep), an
    {e anchor} list measures points one by one, and both keep the
    earliest best.

    Every evaluation goes through the {!Engine}: candidates violating
    the phase-1 constraints are pruned without execution, repeat points
    (across stages, variants, or strategies sharing the engine) are
    served from its memo table, and sweeps evaluate as batches.

    Candidates are compared under the engine's {!Objective}
    ({!Engine.objective}): with the default [Cycles] the comparisons are
    exactly simulated cycles, byte-for-byte the historical behaviour;
    with [Energy] the search minimizes the modelled energy of the
    measurement instead. *)

(** A searched point and its measurement.  The search steers by
    measurements alone and keeps no program: {!Engine.build} makes the
    program of a point, and {!Eco.result} carries the winner's. *)
type outcome = {
  variant : Variant.t;
  bindings : (string * int) list;
  prefetch : (string * int) list;
  measurement : Executor.measurement;
}

(** [tune_variant engine ~n ~mode ~log variant] returns the best
    parameter setting found, or [None] when no feasible point exists. *)
val tune_variant :
  Engine.t ->
  n:int ->
  mode:Executor.mode ->
  log:Search_log.t ->
  Variant.t ->
  outcome option

(** [polish_winner engine ~n ~mode ?log outcome] — the exact polish of
    the cross-variant winner of a sampled run, the one polish the run
    pays (no per-variant polish runs): a capped refinement round, a
    prefetch retune, and one more round, all at full precision.  It can
    only improve the answer.  A no-op when the engine is not
    sampling. *)
val polish_winner :
  Engine.t ->
  n:int ->
  mode:Executor.mode ->
  ?log:Search_log.t ->
  outcome ->
  outcome

(** The model's initial parameter point for a variant (uniform values
    saturating the phase-1 constraints), with no empirical input at all
    — what a purely model-driven compiler would pick (Yotov et al.'s
    question, used by the ablation experiment).  [None] when even the
    all-ones point is infeasible.  Pure constraint arithmetic: runs no
    simulation (the machine argument is kept for call-site symmetry with
    the measuring entry points). *)
val model_point : Machine.t -> n:int -> Variant.t -> (string * int) list option

(** Instantiate + prefetch + measure one explicit point (used by the
    experiment harness for Table 1's hand-picked parameter settings). *)
val measure_point :
  Engine.t ->
  n:int ->
  mode:Executor.mode ->
  ?log:Search_log.t ->
  Variant.t ->
  bindings:(string * int) list ->
  prefetch:(string * int) list ->
  outcome option
