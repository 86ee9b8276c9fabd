(** Demand-trace capture and prefetch-event synthesis.

    The prefetch-distance search (phase 2, §3.2) evaluates many
    candidates per variant point whose demand access streams are all
    identical — only the injected prefetch events differ.  {!capture}
    runs the prefetch-free program once through the bytecode VM with
    iteration marks; {!measure_plans} then walks the recorded demand
    events and marks once, reconstructing and replaying every plan's
    prefetch events inline, and {!reprice_group} prices a distance
    sweep from one walk of its base plan.  The engine uses them for the
    incremental re-pricer's sweep groups only: with the VM's leaf
    loops, measuring a lone plan directly costs less than capturing
    and walking its demand trace.

    {!synthesize} materializes one plan's packed event stream: the
    reference the walk is tested against, bit-identical to executing
    the {!Transform.Prefetch_insert.apply}-transformed program (the
    [vm] test suite enforces this), including the warm-up cut position
    of budgeted measurement.  Execution statistics are unaffected by
    prefetch statements, so {!stats} holds for every plan. *)

type t

(** [capture machine kernel ~n ~mode program] records the demand trace
    of [program] (which must be prefetch-free: the variant instantiated
    at its bindings) under the given measurement mode's flop budget and
    warm-up rules.  [?work] counts the VM events it generates.
    @raise Invalid_argument if the program is malformed. *)
val capture :
  ?work:Executor.work ->
  Machine.t -> Kernels.Kernel.t -> n:int -> mode:Executor.mode ->
  Ir.Program.t -> t

(** The captured demand program. *)
val program : t -> Ir.Program.t

(** Execution statistics of the run (valid for any prefetch plan). *)
val stats : t -> Ir.Exec.stats

(** Approximate footprint in words, for cache budgeting. *)
val words : t -> int

(** [synthesize t ~plan ~into] fills [into] with the packed event
    stream of the program transformed by [plan] — a canonical
    (sorted-ascending) [(array, distance)] list as in
    [Engine.request.prefetch] — and returns the warm-up cut position
    ([-1] when the captured mode needs none).  The per-plan reference
    for {!measure_plans} (with {!Executor.measure_from_trace}); the
    engine never calls it. *)
val synthesize : t -> plan:(string * int) list -> into:Ir.Vm.Buf.t -> int

(** Number of innermost-loop iteration records in the captured trace —
    the granularity at which one unit of prefetch distance shifts an
    emission. *)
val iterations : t -> int

(** [measure_plans machine kernel ~n t ~plans] measures every prefetch
    plan of a sweep group (or a single plan, K = 1) in ONE walk over the
    captured trace: shared demand segments are replayed through all K
    hierarchies per pass ({!Memsim.Hierarchy.Batch.replay_all}),
    per-plan prefetch events are synthesized and dispatched inline.  Each returned measurement is
    bit-identical to synthesizing that plan's stream and measuring it
    with {!Executor.measure_from_trace} (with the same [?sampling]
    spec, whose window decisions are replicated per plan).  [?work]
    counts the events fed to the K hierarchies. *)
val measure_plans :
  ?sampling:Memsim.Sampling.t ->
  ?work:Executor.work ->
  Machine.t ->
  Kernels.Kernel.t ->
  n:int ->
  t ->
  plans:(string * int) list array ->
  Executor.measurement array

(** Result of {!reprice_group}. *)
type repriced = {
  rp_measurements : Executor.measurement option array;
      (** indexed like [plans]: [Some] where a real measurement was
          taken (the base plan, and the estimated-best sibling when it
          differs), [None] where the slack model's estimate stood in *)
  rp_estimated : int;  (** how many plans were priced without replay *)
  rp_joint : bool;
      (** more than one array's distance varied across the group (the
          joint multi-bucket slack path) *)
}

(** [reprice_group machine kernel ~n t ~plans] prices a sweep group
    whose plans all bind the same arrays and differ only in prefetch
    distances (any subset of the arrays may vary): the base plan
    [plans.(0)] is replayed once while recording, per varying array,
    the timeliness slack of each tracked prefetch's first demand use.
    A sibling's stall component is re-priced under the joint
    distance-shifted slacks — each varying array's slack bucket shifts
    by that array's own distance delta — and only the estimated-best
    sibling is re-measured exactly.  Wasted first uses (line evicted
    before the demand arrived) count as distance-invariant evidence,
    so fully-thrashing groups still re-price.  Returns [None] (caller
    should fall back to {!measure_plans}) when the plans do not all
    bind the same array list, or when no tracked first use was
    observed at all.  [?work] counts the events replayed, the
    re-measured sibling's included.  The base plan's walk allocates
    nothing per event. *)
val reprice_group :
  ?sampling:Memsim.Sampling.t ->
  ?work:Executor.work ->
  Machine.t ->
  Kernels.Kernel.t ->
  n:int ->
  t ->
  plans:(string * int) list array ->
  repriced option
