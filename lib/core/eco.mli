(** Top-level driver: the complete two-phase ECO optimizer.

    [optimize machine kernel ~n] derives the variants (phase 1), runs
    the model-guided empirical search on each (phase 2), and returns the
    best version found together with the search log — the whole pipeline
    of the paper in one call.

    {[
      let result = Core.Eco.optimize Machine.sgi_r10000 Kernels.Matmul.kernel ~n:256 in
      Format.printf "best: %.1f MFLOPS@." result.Core.Eco.measurement.Core.Executor.mflops
    ]}

    All candidate measurement flows through one {!Engine}; use
    {!optimize_with} to share an engine — and its measurement memo —
    across several optimizations, strategies or experiments. *)

type result = {
  outcome : Search.outcome;  (** winning variant and parameters *)
  program : Ir.Program.t;
      (** the winner's program, instantiated with its prefetches: the
          one program a run builds, once, with {!Engine.build} *)
  measurement : Executor.measurement;  (** its measurement *)
  variants : Variant.t list;  (** everything phase 1 derived *)
  log : Search_log.t;  (** every point phase 2 evaluated *)
  engine : Engine.t;  (** the evaluation engine used (memo + telemetry) *)
}

(** Why one derived variant contributed nothing to the search. *)
type infeasibility =
  | No_model_point  (** the model found no starting point *)
  | Point_pruned  (** model-initial point rejected by the constraints *)
  | Point_failed of Engine.failure_reason
      (** model-initial point's measurement failed (typed) *)
  | Search_found_nothing
      (** the point measured, but the full search produced no outcome *)

(** Raised (instead of the old untyped [Failure]) when no variant has a
    feasible, measurable parameter setting, carrying a per-variant
    diagnosis.  Cannot happen for the bundled kernels on a healthy
    engine; under injected faults it reports exactly which variant died
    of what. *)
exception
  No_feasible_variant of {
    kernel : string;
    n : int;
    per_variant : (string * infeasibility) list;
  }

(** One-line human description of an {!infeasibility}. *)
val describe_infeasibility : infeasibility -> string

(** Stable machine-readable slug of an {!infeasibility}
    ([no_model_point], [point_pruned], [point_failed],
    [search_found_nothing]) — the shared CLI/service error schema;
    [Point_failed]'s inner reason is coded by {!Engine.failure_code}. *)
val infeasibility_code : infeasibility -> string

(** @param mode execution mode for candidate measurements (default
      {!Executor.default_budget}).
    @param max_variants variants kept for full search after a one-point
      model-initial triage of everything phase 1 derived (default 4).
    @param objective what the search minimizes (default
      [Objective.Cycles], the historical behaviour; [Energy] minimizes
      modelled energy instead).
    @param prefilter analytical pre-filter top-k per batch (default off;
      see {!Engine.create}).
    @raise No_feasible_variant when no variant has a feasible,
      measurable parameter setting (cannot happen for the bundled
      kernels on a healthy engine). *)
val optimize :
  ?mode:Executor.mode ->
  ?max_variants:int ->
  ?objective:Objective.t ->
  ?prefilter:int ->
  Machine.t ->
  Kernels.Kernel.t ->
  n:int ->
  result

(** As {!optimize}, but measuring through a caller-supplied engine, so
    repeated points across kernels, strategies and experiments are
    served from one shared memo table.  [log] (default: a fresh log)
    lets the caller own the search log, so a search cut short by a
    deadline or a cancel token can still report its best-so-far. *)
val optimize_with :
  ?mode:Executor.mode ->
  ?max_variants:int ->
  ?log:Search_log.t ->
  Engine.t ->
  Kernels.Kernel.t ->
  n:int ->
  result

(** Re-measure a tuned result at a different problem size (variants keep
    their parameters across sizes, as the paper's ECO versions do).
    Reuses the result's engine when [machine] matches it. *)
val remeasure : ?mode:Executor.mode -> Machine.t -> result -> n:int -> Executor.measurement option

(** The checkpoint tag of a tune: everything that determines its answer
    (machine, kernel name, n, flop budget, fault plan, trials and
    retries, objective, pre-filter, database mode, sampling spec,
    incremental re-pricing and confirmation override), so
    {!Engine.load_checkpoint} refuses a checkpoint another
    configuration wrote.  [eco tune] and [eco serve] both tag with it;
    the daemon also names a session's checkpoint and request files by
    its digest, so the format must not change. *)
val checkpoint_tag :
  machine:Machine.t ->
  kernel:string ->
  n:int ->
  budget:int ->
  faults:Faults.t ->
  protocol:Engine.protocol ->
  objective:Objective.t ->
  prefilter:int option ->
  db:[ `Off | `Warm | `Exact ] ->
  sampling:Memsim.Sampling.t option ->
  incremental:bool ->
  confirm:int option ->
  string
