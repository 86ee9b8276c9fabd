(** Demand-trace capture and prefetch-event synthesis.

    The prefetch-distance search (phase 2, §3.2) evaluates many
    candidates per variant point whose demand access streams are all
    identical — only the injected prefetch events differ.  {!capture}
    runs the prefetch-free program once through the bytecode VM with
    iteration marks; {!synthesize} rebuilds any plan's packed event
    stream from the recorded demand events and marks, {!measure_plans}
    measures plans from their synthesized streams, and {!reprice_group}
    prices a distance sweep from one walk of its base plan.  The engine
    uses them for the incremental re-pricer's sweep groups only: with
    the VM's leaf loops, measuring a lone plan directly costs less than
    capturing its demand trace.

    {!synthesize}'s stream is bit-identical to executing the
    {!Transform.Prefetch_insert.apply}-transformed program (the [vm]
    test suite enforces this), including the warm-up cut position of
    budgeted measurement.  Execution statistics are unaffected by
    prefetch statements, so {!stats} holds for every plan. *)

type t

(** [capture machine kernel ~n ~mode program] records the demand trace
    of [program] (which must be prefetch-free: the variant instantiated
    at its bindings) under the given measurement mode's flop budget and
    warm-up rules.  The VM runs into the domain's pooled buffers
    ({!Executor.pooled_buffers}) and the trace keeps a copy of what it
    recorded.  [?work] counts the VM events it generates.
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
    ([-1] when the captured mode needs none). *)
val synthesize : t -> plan:(string * int) list -> into:Ir.Vm.Buf.t -> int

(** [measure_plans machine kernel ~n t ~plans] measures each prefetch
    plan of a sweep group on its own: {!synthesize} into the domain's
    pooled event buffer, then {!Executor.measure_from_trace} (with the
    same [?sampling] spec).  [?work] counts the events replayed. *)
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
    nothing per event.

    A sampled walk matches only first uses inside the sampler's
    measured windows.  On matmul n=120 at budget 800000 with
    [shrink=4], the post-cut suffix is 33,618 events, about one sampler
    period: the groups that vary [a], [b] or [c] match 0 first uses
    there (the suffix holds no [b] or [c] prefetch, and none of [a]'s
    1485 falls in the measured window) and are declined, while the
    exact walks of the [b] and [a] groups match 1888 and 6724.  The
    groups that vary the copy buffers [p_b] and [p_a] match 1254 and
    1340 sampled, and re-price. *)
val reprice_group :
  ?sampling:Memsim.Sampling.t ->
  ?work:Executor.work ->
  Machine.t ->
  Kernels.Kernel.t ->
  n:int ->
  t ->
  plans:(string * int) list array ->
  repriced option
