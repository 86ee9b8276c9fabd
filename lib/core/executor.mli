(** The "empirical" in guided empirical search: run an instantiated
    program on the simulated machine and measure it.

    Two modes: [Full] simulates the entire computation; [Budget f] stops
    after [f] useful flops and extrapolates steady-state cycles to the
    full problem — the sampled-simulation substitute for wall-clock
    timing on real hardware (see DESIGN.md).

    {!measure} compiles the program once to {!Ir.Vm} bytecode, records
    the packed event stream and feeds it to
    {!Memsim.Hierarchy.replay_packed} in one tight loop.
    {!measure_reference} is the original execution-driven pipeline
    through the closure interpreter ({!Ir.Exec}): bit-identical
    measurements (enforced by the differential test suite), kept as the
    exact oracle for the tests and the evaluation benchmark. *)

type mode = Full | Budget of int

(** A sensible default budget for searches (a few tens of millions of
    simulated accesses per candidate). *)
val default_budget : mode

(** [trace_budgets kernel ~n mode] is [(flop_budget, warm_budget)]:
    the flops a measurement of [mode] traces ([None] = the whole
    problem), and the warm-up pass run first and discarded when that
    budget stops short of the full problem ([max 1 (b / 2)] flops;
    [None] otherwise).  Every trace producer ({!measure},
    {!measure_reference}, [Demand_trace.capture]) derives its budgets
    here. *)
val trace_budgets : Kernels.Kernel.t -> n:int -> mode -> int option * int option

(** Wall-time breakdown of one measurement (all zero where a stage does
    not apply; the reference books everything under [exec_s]). *)
type timings = { compile_s : float; exec_s : float; sim_s : float }

(** The simulator's work behind one or more measurements, accumulated
    by the [?work] argument of {!measure}, {!measure_from_trace},
    [Demand_trace.capture], [Demand_trace.measure_plans] and
    [Demand_trace.reprice_group]: VM
    events generated, and events fed to a simulated hierarchy (warm-up
    and measured alike; events a sampler drops are not replayed).  Kept
    out of {!measurement}, which the perfdb and checkpoints persist. *)
type work = { mutable vm_events : int; mutable replayed_events : int }

(** A zero {!work} accumulator. *)
val work : unit -> work

(** [add_work work ~vm ~replayed] adds to the accumulator, if any. *)
val add_work : work option -> vm:int -> replayed:int -> unit

type measurement = {
  cost : Memsim.Cost.t;  (** extrapolated to the full problem in budget mode *)
  counters : Memsim.Counters.t;  (** raw (unscaled) hierarchy counters *)
  stats : Ir.Exec.stats;  (** raw executor statistics *)
  scale : float;  (** extrapolation factor (1.0 when complete) *)
  mflops : float;  (** convenience: [cost.mflops] *)
  timings : timings;
}

(** [measure machine kernel ~n ~mode program] runs [program] (an
    instantiated variant of [kernel]) with the kernel's size parameter
    bound to [n], streaming accesses through a freshly reset hierarchy
    of [machine], spilling registers beyond the machine's available
    register file.

    With [?sampling], it measures a sampled estimate: the flop budget
    is divided by the spec's [shrink] before tracing, only the
    sampler's periodic windows of the replay are accounted, and the
    counters are extrapolated back up ({!Memsim.Sampling}).  [?work]
    accumulates the VM events generated and the events replayed.

    @raise Invalid_argument if the program is malformed. *)
val measure :
  ?sampling:Memsim.Sampling.t ->
  ?work:work ->
  Machine.t ->
  Kernels.Kernel.t ->
  n:int ->
  mode:mode ->
  Ir.Program.t ->
  measurement

(** The exact, unsampled oracle: [measure] through the closure
    interpreter, every access dispatched through
    {!Memsim.Hierarchy.sink} of a fresh hierarchy and the warm-up pass
    run as a separate execution.  Bit-identical to {!measure} without
    sampling (the [vm] differential suite checks it) and several times
    slower; the engine never calls it.
    @raise Invalid_argument if the program is malformed. *)
val measure_reference :
  Machine.t -> Kernels.Kernel.t -> n:int -> mode:mode -> Ir.Program.t ->
  measurement

(** [measure_from_trace machine kernel ~n ~stats ~events ~n_events ~cut]
    measures a candidate whose packed event stream is already known
    (synthesized by {!Demand_trace.synthesize}): replays
    [events.(0 .. cut-1)] as the warm-up pass when [cut >= 0]
    ({!warm_prefix}), then replays the full stream.  [stats] are the
    execution statistics of the trace's program.  [?sampling] replays
    only the sampler's windows and extrapolates, as in {!measure} (the
    trace must then have been generated at the spec's shrunken budget
    for the estimate to line up).  [?work] counts the events replayed.
    Runs on the domain's pooled hierarchy; [Demand_trace.measure_plans]
    measures every plan this way. *)
val measure_from_trace :
  ?sampling:Memsim.Sampling.t ->
  ?work:work ->
  Machine.t ->
  Kernels.Kernel.t ->
  n:int ->
  stats:Ir.Exec.stats ->
  events:int array ->
  n_events:int ->
  cut:int ->
  measurement

(** Assemble a measurement from replayed counters and executor stats —
    the cost arithmetic plus flop-scale extrapolation that ends every
    measure function above, exposed for the re-pricer's base-plan walk
    in {!Demand_trace}. *)
val finish :
  Machine.t ->
  Kernels.Kernel.t ->
  n:int ->
  counters:Memsim.Counters.t ->
  stats:Ir.Exec.stats ->
  timings:timings ->
  measurement

(** The mode a sampled measurement actually traces at: [Budget b]
    divided by the spec's [shrink] (identity without sampling or in
    [Full] mode). *)
val effective_mode : Memsim.Sampling.t option -> mode -> mode

(** [pooled_hierarchy machine] returns the domain's one pooled
    simulated hierarchy of [machine], freshly reset (a hierarchy is
    ~1MB of arrays; reuse is most of the evaluator's allocation-churn
    savings).  It is only valid until the next measurement on the same
    domain — measurements snapshot their counters in {!finish}, so no
    completed measurement refers back into the pool. *)
val pooled_hierarchy : Machine.t -> Memsim.Hierarchy.t

(** The domain's pooled [(events, marks)] VM buffers, which {!measure}
    runs the VM into; [Demand_trace] captures into them and synthesizes
    into the event buffer.  Their contents are only valid until the next
    measurement on the same domain. *)
val pooled_buffers : unit -> Ir.Vm.Buf.t * Ir.Vm.Buf.t

(** [warm_prefix ?sampling h events ~cut] replays the warm-up prefix
    [events.(0 .. cut-1)] into [h] state-only and resets its counters;
    nothing when [cut < 0].  With [?sampling] only the prefix's trailing
    {!Memsim.Sampling.prefix_cap} events are replayed.  Returns the
    number of events replayed. *)
val warm_prefix :
  ?sampling:Memsim.Sampling.t ->
  Memsim.Hierarchy.t ->
  int array ->
  cut:int ->
  int

(** The suffix extrapolation factor of a sampled measurement that
    measured only the [fed] post-warm-up events of a [warm + fed]-event
    stream: [(warm + fed) / fed].  Exposed so the re-pricer's base-plan
    walk reproduces {!measure_from_trace}'s estimate bit-for-bit. *)
val suffix_factor : warm:int -> fed:int -> float

(** Total simulated cycles — the search's objective function. *)
val cycles : measurement -> float

(** [perturb m factor] is [m] observed to take [factor] times as long:
    every cycle count and [seconds] scale by [factor], MFLOPS divides by
    it, and the flop count stays put.  The identity when [factor = 1.0]
    (same physical measurement back).  This is how the engine's
    fault-tolerant protocol applies injected timing noise and commits
    the aggregate of repeated trials. *)
val perturb : measurement -> float -> measurement
