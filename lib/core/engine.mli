(** The evaluation engine: every candidate measurement in the system
    goes through here.

    The paper's argument (§3.2, §4.3) is that model pruning keeps the
    {e number} of empirical evaluations small; this module makes each
    remaining evaluation as cheap as possible and survives a hostile
    measurement substrate:

    - {b Memoization} — measurements are keyed by a canonical
      fingerprint [(kernel, variant shape, n, mode, bindings,
      prefetch)], so a point revisited by a later search stage, another
      strategy, or another experiment sharing the engine is served from
      the memo table without re-simulation.  The memo keeps each
      point's measurement, not its program: {!build} makes the program
      of a point on demand (the search needs only the winner's).
      Infeasible points are cached too, so constraint pruning is paid
      once per point — and so are failed points, with their typed
      {!failure_reason}, so a quarantined candidate is never
      re-measured.
    - {b One measurement route per candidate} — a candidate is
      measured directly ({!Executor.measure}) unless the incremental
      re-pricer prices its sweep group: under {!set_incremental} with
      the cycles objective, prefetch candidates sharing a demand trace
      are priced together ({!Demand_trace.reprice_group}; when the
      re-pricer declines, {!Demand_trace.measure_plans} measures each
      plan from the captured trace).
      Only a prefetch plan whose every distance is at least 1 joins a
      group; a shorter distance has no program, and fails as
      {!Malformed_program} on the direct route.
    - {b One domain, one pass} — [evaluate_batch] walks its requests
      once, in order, as the paper's phase 2 times each candidate on
      the target machine: each memo miss is measured at its own slot
      and committed at once to the memo table, telemetry and the
      {!Search_log}.  A re-priced sweep group is measured at its first
      member's slot, and each later member commits at its own.
    - {b Fault tolerance} — with a {!Faults.t} plan and a {!protocol},
      each candidate is measured under a resilient protocol: repeated
      trials aggregated by median/trimmed mean with adaptive early
      stop, bounded retry on transient failures and hangs, a
      deterministic simulated-cycle deadline, and quarantine when the
      retry budget is exhausted.  Every fault draw is keyed by the
      candidate fingerprint, so results stay bit-identical in any
      evaluation order.  A measurement that raises [Invalid_argument]
      fails as {!Malformed_program}; any other exception is a bug and
      propagates.
    - {b Crash-only persistence} — {!set_checkpoint} periodically
      persists the memo table and the counter record;
      {!load_checkpoint} restores them, after which a deterministic
      search replays to the identical final answer.
    - {b Telemetry} — one counter record per engine (memo hits, fresh
      simulations, constraint-pruned candidates, typed failure
      breakdown, retries, simulated cycles, wall seconds inside
      evaluation), read as a {!stats} snapshot; the {!Search_log}
      counts each search's share of a shared engine.

    An engine is bound to one machine model.  It is not thread-safe:
    call it from one domain. *)

type t

(** Why a candidate's evaluation failed.  The first two are
    deterministic properties of the candidate; the rest are verdicts of
    the resilient measurement protocol. *)
type failure_reason =
  | Infeasible_instantiation
      (** the variant rejected the bindings at instantiation *)
  | Malformed_program  (** the instantiated program failed to execute *)
  | Transient
      (** a transient measurement failure, with no retry budget to
          absorb it *)
  | Timeout
      (** the simulated-cycle cap was exceeded, or a hang met an empty
          retry budget *)
  | Quarantined
      (** failed persistently: the retry budget was exhausted *)

(** One-line human description of a {!failure_reason}. *)
val describe_failure : failure_reason -> string

(** Stable machine-readable slug of a {!failure_reason} ([infeasible],
    [malformed], [transient], [timeout], [quarantined]) — the shared
    error schema emitted by both the CLI and the autotuning service. *)
val failure_code : failure_reason -> string

(** How hard the engine fights the measurement substrate for each
    candidate. *)
type protocol = {
  trials : int;  (** repeated measurements per candidate (min 1) *)
  max_retries : int;
      (** retry budget per trial for transient failures and hangs;
          [0] makes the first transient final *)
  cycle_cap : float;
      (** deterministic deadline: a candidate whose clean simulated
          cycles (or any perturbed trial) exceed this fails with
          [Timeout] *)
  spread_rtol : float;
      (** adaptive early stop: stop trialling once the relative spread
          of the samples is within this tolerance *)
  min_trials : int;  (** never early-stop before this many trials *)
}

(** [{ trials = 1; max_retries = 2; cycle_cap = infinity;
       spread_rtol = 0.02; min_trials = 2 }].  The engine-level wall
    clock bound is {!set_deadline}. *)
val default_protocol : protocol

(** [create ?faults ?protocol ?objective ?prefilter machine] makes an
    engine for [machine].  [faults] (default
    {!Faults.none}) injects seeded measurement faults; [protocol]
    (default {!default_protocol}) configures the resilient measurement
    protocol.  With the defaults — no active fault plan and
    [trials = 1] — measurements are bit-for-bit what they were without
    the robustness layer.

    [objective] (default [Objective.Cycles]) is what the search and the
    pre-filter's ranking minimize.  [prefilter] (default off; values
    < 1 disable) arms the analytical pre-filter: each {!evaluate_batch}
    ranks every distinct feasible member of the batch — memo hits
    included, ties to the earlier position — with {!Predict} under the
    engine's objective and simulates only the top-k.  Every member
    outside the top-k returns [None], even when it is memoized, and is
    counted in {!stats} ([prefiltered]) and via
    {!Search_log.note_prefiltered}; skipped candidates are {e not}
    memoized, so a later request can still measure them.  The skipped
    set is a pure function of the batch: what a shared memo already
    holds cannot change what a search sees, so results stay
    bit-identical across daemon sessions.
    Memoization, the fault protocol and checkpointing are
    unaffected. *)
val create :
  ?faults:Faults.t ->
  ?protocol:protocol ->
  ?objective:Objective.t ->
  ?prefilter:int ->
  Machine.t ->
  t

val machine : t -> Machine.t
val protocol : t -> protocol
val objective : t -> Objective.t
val prefilter : t -> int option

(** The default top-k for [--prefilter] without a value: 4, matching
    {!Eco}'s triage width. *)
val default_prefilter : int

(** {2 Sweep groups, sampled and incremental replay}

    Three evaluator tiers (DESIGN.md, "Three replay tiers"):

    - {b Sweep groups} (under incremental re-pricing): within an
      {!evaluate_batch}, prefetch candidates that share one captured
      demand trace (a distance sweep over one variant point) form a
      group; a group the re-pricer declines is measured plan by plan
      from the trace ({!Demand_trace.measure_plans}).  Each
      measurement is bit-identical to measuring the candidate on its
      own, which is what every candidate outside a re-priced group
      gets: generating a plan's own trace costs less than capturing
      the shared one.
    - {b Sampled simulation} (off by default): with a
      {!Memsim.Sampling.t} spec, measurements become sampled
      estimates — the trace is generated at a budget shrunken by
      [spec.shrink] and only the sampler's periodic windows are
      replayed with full accounting, counters extrapolated back up.
      Estimates are memoized under a fingerprint carrying a sampled
      flag, never satisfy an exact lookup, and never enter the
      performance database.  {!measure_program} stays exact.
    - {b Incremental re-simulation} (off by default): when the sweep
      group's plans all bind the same arrays and differ only in
      prefetch distances (any subset of the arrays may vary), the base
      plan's replay records per-array timeliness slacks and the
      siblings are re-priced analytically under the joint
      distance-shifted slacks; only the estimated-best sibling is
      re-measured exactly ({!Demand_trace.reprice_group}).  Re-priced
      candidates return [None], are counted ([repriced], with
      [repriced_joint] tracking the multi-array groups,
      {!Search_log.note_repriced}) and are {e not} memoized — like
      pre-filter skips, a later request can still measure them.  A
      checkpoint carries these verdicts instead, so a resumed search
      meets each re-priced request of the dead run with its verdict.

    Groups form under any fault plan and trial count: the group yields
    each member's clean measurement, and the protocol (cycle
    cap, seeded trial draws, retries, quarantine, aggregation) then
    applies to each member exactly as to a candidate measured
    alone. *)

val sampling : t -> Memsim.Sampling.t option
val set_sampling : t -> Memsim.Sampling.t option -> unit
val set_incremental : t -> bool -> unit

(** {2 Adaptive confirmation}

    After a sampled search, [Search.confirm_best] re-measures the
    leaderboard exactly.  The engine holds the pieces that must outlive
    any single search state: the per-kernel rank-quality record of the
    sampled estimator (confirmed pairs vs. observed order inversions,
    accumulated by every confirmation pass) and the user's [--confirm]
    override.  [Search] reads {!rank_quality} to shrink the confirm set
    from the full leaderboard toward a single candidate as the
    estimator proves its ranking on this kernel; the floor of one exact
    confirmation is never crossed, so the reported [performance:] stays
    an exact measurement.  Checkpoints do not carry the rank-quality
    record: a resumed search's replay records it again. *)

(** The forced confirm-set size ([None] = adaptive policy).  Values are
    clamped to at least 1 on the way in. *)
val confirm_override : t -> int option

val set_confirm_override : t -> int option -> unit

(** [(pairs, inversions)] observed for [kernel] so far: ordered
    leaderboard pairs whose exact scores were separated enough to
    judge, and how many of them the sampled estimate ranked backwards.
    [(0, 0)] before any confirmation pass. *)
val rank_quality : t -> kernel:string -> int * int

(** Fold one confirmation pass's evidence into the kernel's record
    (no-op when [pairs = 0]). *)
val record_rank_sample : t -> kernel:string -> pairs:int -> inversions:int -> unit

(** Count one leaderboard confirmation (an exact re-measurement after a
    sampled search, or a longer re-measurement under noise; called by
    [Search.confirm_best]). *)
val note_confirmed : t -> ?log:Search_log.t -> unit -> unit

(** Count one confirmation the adaptive policy skipped. *)
val note_confirm_skipped : t -> unit

(** {2 Persistent performance database}

    With {!set_db}, the engine gains an exact-hit tier below the memo
    table: a memo miss whose database key — the canonical fingerprint
    digested with the measurement context (machine, fault plan,
    aggregation protocol) — is on disk is served without simulation
    ([cached = true], counted as a [db_hit]), and every fresh {e
    successful} measurement is appended back, one flushed frame per
    record, deduplicated by key.  Pruned, failed and quarantined
    candidates are never persisted.  Lookups and appends happen in
    request order — and an empty database changes nothing at all. *)

(** Attach a database.  [warm_start] (default true) additionally offers
    it to [Search] for nearest-neighbor transfer seeding ({!warm_db});
    the exact-hit tier is active either way. *)
val set_db : t -> ?warm_start:bool -> Perfdb.t -> unit

val db : t -> Perfdb.t option

(** Quarantine the store: detach it (and disable warm-starting), so
    evaluation continues from the in-memory memo alone, and record why
    (first failure wins).  The engine calls this itself on the first database
    append failure; the autotuning daemon calls it when a shared store
    turns out corrupt at load time. *)
val degrade_db : t -> string -> unit

(** Why the database tier was quarantined, [None] while it is healthy.
    Surfaces as [db: degraded] in service telemetry. *)
val db_degraded : t -> string option

(** The database to seed transfers from — [None] when no database is
    attached or warm-starting was disabled. *)
val warm_db : t -> Perfdb.t option

(** Count one transferred warm-start seed (called by [Search] as it
    force-simulates a transferred anchor). *)
val note_warm_start : t -> unit

(** One candidate point of one variant. *)
type request = {
  variant : Variant.t;
  n : int;
  mode : Executor.mode;
  bindings : (string * int) list;
  prefetch : (string * int) list;  (** (array, distance) list *)
  check : bool;
      (** enforce the variant's phase-1 feasibility constraints before
          simulating (the model pruning); [false] replicates a raw
          measurement of a hand-picked point *)
}

val request :
  ?check:bool ->
  ?prefetch:(string * int) list ->
  Variant.t ->
  n:int ->
  mode:Executor.mode ->
  bindings:(string * int) list ->
  request

(** A point's measurement.  Its program is not kept: {!build} makes it
    (instantiation is pure, so that is the program that was
    measured). *)
type evaluation = {
  measurement : Executor.measurement;
  cached : bool;  (** served from the memo table, not re-simulated *)
}

(** Evaluate one point.  [None] when the point is infeasible (pruned by
    constraints), the variant cannot be instantiated at it, or its
    measurement failed under the protocol (timeout / quarantine /
    unretried transient — ask {!explain} for the reason).  When [log] is
    given, fresh evaluations are {!Search_log.record}ed, memo hits
    {!Search_log.note_hit}ed, pruned candidates
    {!Search_log.note_pruned}ed and failures
    {!Search_log.note_failed}ed. *)
val evaluate : t -> ?log:Search_log.t -> request -> evaluation option

(** Evaluate an independent batch; result list is in request order.
    Memo hits and duplicate requests within the batch are simulated at
    most once.  The pre-filter and incremental re-pricing act on whole
    batches only; without them, results (and log contents) are
    identical to repeated {!evaluate} calls in list order. *)
val evaluate_batch :
  t -> ?log:Search_log.t -> request list -> evaluation option list

(** What the memo table knows about a point: measured, pruned by
    constraints, failed with a typed reason, or never evaluated. *)
val explain :
  t -> request -> [ `Measured | `Pruned | `Failed of failure_reason | `Unknown ]

(** Is the engine measuring through a value-perturbing fault plan
    ({!Faults.noisy}) with repeated trials?  When it is, searches
    should {!confirm} their leading candidates before declaring a
    winner.  Zero-rate active plans are excluded: their samples equal
    the clean measurement, so confirmation could never change the
    answer. *)
val confirming : t -> bool

(** [confirm t r ~trials] re-measures the point with [trials] fresh
    trials (drawn from a reserved trial band, independent of the draws
    behind the memoized measurement) and no early stop — the defence
    against the winner's curse: the minimum over many noisy memoized
    values is biased low, so the apparent best points are re-measured
    and compared on confirmed values.  Bypasses the memo (counts as a
    fresh evaluation in {!stats}; not recorded in the search log).
    When the engine is not {!confirming}, falls back to a plain
    (memoized) {!evaluate} — zero extra cost, identical results.
    [None] when the point is infeasible or its confirmation fails. *)
val confirm : t -> request -> trials:int -> Executor.measurement option

(** Instantiate the request's program (variant + bindings + prefetch)
    without measuring it; [None] if instantiation fails.  Feasibility is
    not checked. *)
val build : t -> request -> Ir.Program.t option

(** Measure an explicit program (one not described by a variant point:
    the native-compiler model's output, a padded program, the
    untransformed kernel...).  Memoized under [key] when given;
    otherwise under a structural digest of the program, falling back to
    unmemoized execution if the program cannot be digested.  Runs
    outside the fault-injection protocol (it measures references, not
    search candidates).
    @raise Invalid_argument if the program is malformed. *)
val measure_program :
  t ->
  ?key:string ->
  Kernels.Kernel.t ->
  n:int ->
  mode:Executor.mode ->
  Ir.Program.t ->
  Executor.measurement

(** {2 Crash-only checkpointing}

    A checkpoint persists the memo table and the re-pricer's verdicts
    (which, for a deterministic search, {e are} the search cursor:
    replaying the search against them costs only lookups) and the whole
    {!stats} record.  The memo holds measurements, pruned points and
    typed failures, never programs, so a checkpoint stays small (tens
    of KB for one tune).  A batch with a re-priced sweep group is
    persisted whole: a checkpoint falling due while it commits is
    written after its last commit.
    Files are written atomically (write to a temp file, then rename),
    prefixed with a magic string and an integrity digest, so a run
    killed at any instant leaves a loadable checkpoint — the previous
    complete one at worst. *)

(** Raised by {!load_checkpoint} when the file is a valid checkpoint of
    a {e different} run configuration (tag or machine mismatch) —
    resuming it would silently answer the wrong question. *)
exception Checkpoint_mismatch of string

(** Raised from inside evaluation once the {!set_eval_limit} budget is
    reached — the deterministic stand-in for a SIGKILL mid-search, used
    to test and demonstrate crash recovery. *)
exception Eval_limit_reached of int

type resume = {
  resumed_entries : int;  (** memo entries restored *)
  resumed_fresh : int;  (** fresh evaluations the dead run had done *)
  resumed_best_cycles : float option;
      (** best measured cycles in the restored memo *)
}

(** [set_checkpoint t ~tag file] arms periodic checkpointing: the engine
    rewrites [file] after every [every] (default 16) fresh evaluations
    (within a batch with a sweep group, after the batch's last
    commit).
    [tag] should encode everything that determines the run's answer
    (machine, kernel, n, budget, faults, protocol); it is embedded
    in the file and verified on load. *)
val set_checkpoint : t -> ?every:int -> tag:string -> string -> unit

(** Write a checkpoint immediately (no-op unless {!set_checkpoint} was
    called) — e.g. once more after the search completes. *)
val checkpoint_now : t -> unit

(** [load_checkpoint t ~tag file] restores the memo table, the
    re-pricer's verdicts and every counter of {!stats} from [file].
    [None] when the file is missing, truncated, corrupt or written by
    another format version (crash-only recovery: start fresh).
    @raise Checkpoint_mismatch when the file belongs to a different run
    configuration or machine. *)
val load_checkpoint : t -> tag:string -> string -> resume option

(** Abort the run (raising {!Eval_limit_reached}) after this many total
    fresh evaluations — crash injection for testing recovery. *)
val set_eval_limit : t -> int -> unit

(** {2 Cooperative interruption}

    The hooks the autotuning service ([lib/serve]) threads its cancel
    tokens, per-request deadlines and hung-batch watchdog through.
    Both fire {e after} periodic checkpoint persistence (within a batch
    with a sweep group, after the batch's last commit), so whatever
    they raise aborts a search that is resumable by construction:
    [load_checkpoint] + replay lands on the identical answer. *)

(** Raised from inside evaluation once the wall-clock instant armed
    with {!set_deadline} has passed — the typed "out of time" that
    [eco tune --timeout] and the service's per-request deadlines share.
    The caller reports its best-so-far as a typed partial result. *)
exception Deadline_exceeded

(** [set_poll t (Some f)] installs a cooperative interruption hook:
    [f] runs before each {!evaluate}, at the top of each
    {!evaluate_batch}, and after each fresh commit — between the
    measurements of one batch, so a cancel lands within one evaluation
    (within a batch with a sweep group, after the batch's last
    commit).  It may raise (e.g. a cancel token) to abort the search
    in progress.  [None] uninstalls.  The engine state is consistent
    at every call site, so an exception here never tears the memo. *)
val set_poll : t -> (unit -> unit) option -> unit

(** [set_yield t (Some f)] installs a batch-boundary hook: [f] runs at
    the top of every {!evaluate_batch}, where the engine is quiescent —
    the one place a scheduler may suspend the whole search (e.g. via an
    effect) and interleave another session on the same engine. *)
val set_yield : t -> (unit -> unit) option -> unit

(** Arm ([Some abs_time], a [Unix.gettimeofday] instant) or disarm
    ([None]) the engine-level wall deadline checked at every
    interruption point. *)
val set_deadline : t -> float option -> unit

(** {2 Telemetry} *)

(** Cumulative engine-lifetime telemetry: the engine's one counter
    record.  Only the engine bumps it, in place; {!stats} hands out a
    read-only copy. *)
type stats = private {
  mutable hits : int;  (** requests served from the memo table *)
  mutable fresh : int;  (** actual simulations run *)
  mutable pruned : int;
      (** candidates rejected by constraints, no simulation *)
  mutable prefiltered : int;
      (** candidates skipped by the analytical pre-filter (feasible,
          ranked outside the batch top-k, never simulated) *)
  mutable model_evals : int;  (** analytical predictions computed *)
  mutable model_seconds : float;  (** wall time inside the analytical model *)
  mutable failed : int;  (** instantiation/measurement failures (total) *)
  mutable failed_infeasible : int;  (** {!Infeasible_instantiation} *)
  mutable failed_malformed : int;  (** {!Malformed_program} *)
  mutable failed_transient : int;  (** {!Transient} *)
  mutable failed_timeout : int;  (** {!Timeout} *)
  mutable failed_quarantined : int;  (** {!Quarantined} *)
  mutable retries : int;  (** protocol retries across all candidates *)
  mutable trials_run : int;  (** successful trials across all candidates *)
  mutable early_stops : int;  (** candidates whose trials stopped early *)
  mutable simulated_cycles : float;
      (** total cycles across fresh measurements *)
  mutable eval_seconds : float;  (** wall time spent inside evaluation *)
  mutable compile_seconds : float;  (** bytecode compilation *)
  mutable exec_seconds : float;  (** program execution / trace generation *)
  mutable sim_seconds : float;  (** hierarchy simulation (replay) *)
  mutable memo_seconds : float;  (** memo-table lookups *)
  mutable trace_hits : int;
      (** re-priced sweep groups served by a cached demand trace *)
  mutable trace_fills : int;  (** demand traces captured *)
  mutable fill_seconds : float;
      (** wall time spent capturing demand traces
          (variant instantiation + VM run + event copy) — outside
          [eval_seconds] *)
  mutable vm_events : int;
      (** events the VM generated: direct measurements and demand-trace
          captures *)
  mutable replayed_events : int;
      (** events fed to a simulated hierarchy, warm-up and measured
          alike (events a sampler drops are not replayed) *)
  mutable db_hits : int;  (** points served from the persistent database *)
  mutable warm_starts : int;  (** transferred warm-start seeds *)
  mutable sampled : int;  (** fresh evaluations measured as sampled estimates *)
  mutable batched_groups : int;
      (** sweep groups formed for the incremental re-pricer *)
  mutable batched_candidates : int;  (** candidates covered by those groups *)
  mutable repriced : int;
      (** candidates priced by the incremental repricer, never replayed *)
  mutable repriced_joint : int;
      (** the subset of [repriced] priced by the joint multi-array
          slack model (more than one array's distance varied) *)
  mutable confirmed : int;  (** leaderboard confirmations run *)
  mutable confirm_skipped : int;
      (** leaderboard confirmations skipped by the adaptive policy *)
}

(** A snapshot of the engine's counters: later evaluations do not
    change it. *)
val stats : t -> stats

(** The headline telemetry line ([eco tune]'s [engine:] line); appends
    the failure breakdown and retry count when nonzero. *)
val pp_stats : Format.formatter -> stats -> unit

(** The [--profile] wall-time breakdown: where evaluation time went
    (compile vs. execute vs. simulate vs. memo lookups), how the
    demand-trace cache behaved, the simulator's work (VM events
    generated, events replayed), and the protocol counters when the
    resilient protocol did any work. *)
val pp_profile : Format.formatter -> stats -> unit
