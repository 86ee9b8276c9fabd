type request = {
  variant : Variant.t;
  n : int;
  mode : Executor.mode;
  bindings : (string * int) list;
  prefetch : (string * int) list;
  check : bool;
}

type evaluation = { measurement : Executor.measurement; cached : bool }

(* Why a candidate's evaluation failed.  [Infeasible_instantiation] and
   [Malformed_program] are deterministic (real IR/transformation bugs —
   they must not hide behind an aggregate counter); [Transient],
   [Timeout] and [Quarantined] come from the hostile measurement
   substrate via the resilient protocol below. *)
type failure_reason =
  | Infeasible_instantiation
  | Malformed_program
  | Transient
  | Timeout
  | Quarantined

let describe_failure = function
  | Infeasible_instantiation -> "variant rejected the bindings at instantiation"
  | Malformed_program -> "instantiated program failed to execute"
  | Transient -> "transient measurement failure (no retry budget)"
  | Timeout -> "evaluation deadline exceeded"
  | Quarantined -> "persistently failing: retry budget exhausted"

(* Stable machine-readable slugs: the shared error schema the CLI and
   the autotuning service both emit (Serve.Errors). *)
let failure_code = function
  | Infeasible_instantiation -> "infeasible"
  | Malformed_program -> "malformed"
  | Transient -> "transient"
  | Timeout -> "timeout"
  | Quarantined -> "quarantined"

(* The resilient measurement protocol: how hard the engine fights the
   measurement substrate for each candidate. *)
type protocol = {
  trials : int;
  max_retries : int;
  cycle_cap : float;
  spread_rtol : float;
  min_trials : int;
}

let default_protocol =
  {
    trials = 1;
    max_retries = 2;
    cycle_cap = infinity;
    spread_rtol = 0.02;
    min_trials = 2;
  }

type stats = {
  mutable hits : int;
  mutable fresh : int;
  mutable pruned : int;
  mutable prefiltered : int;
  mutable model_evals : int;
  mutable model_seconds : float;
  mutable failed : int;
  mutable failed_infeasible : int;
  mutable failed_malformed : int;
  mutable failed_transient : int;
  mutable failed_timeout : int;
  mutable failed_quarantined : int;
  mutable retries : int;
  mutable trials_run : int;
  mutable early_stops : int;
  mutable simulated_cycles : float;
  mutable eval_seconds : float;
  mutable compile_seconds : float;
  mutable exec_seconds : float;
  mutable sim_seconds : float;
  mutable memo_seconds : float;
  mutable trace_hits : int;
  mutable trace_fills : int;
  mutable fill_seconds : float;
  mutable vm_events : int;
  mutable replayed_events : int;
  mutable db_hits : int;
  mutable warm_starts : int;
  mutable sampled : int;
  mutable batched_groups : int;
  mutable batched_candidates : int;
  mutable repriced : int;
  mutable repriced_joint : int;
  mutable confirmed : int;
  mutable confirm_skipped : int;
}

let zero_stats () =
  {
    hits = 0;
    fresh = 0;
    pruned = 0;
    prefiltered = 0;
    model_evals = 0;
    model_seconds = 0.0;
    failed = 0;
    failed_infeasible = 0;
    failed_malformed = 0;
    failed_transient = 0;
    failed_timeout = 0;
    failed_quarantined = 0;
    retries = 0;
    trials_run = 0;
    early_stops = 0;
    simulated_cycles = 0.0;
    eval_seconds = 0.0;
    compile_seconds = 0.0;
    exec_seconds = 0.0;
    sim_seconds = 0.0;
    memo_seconds = 0.0;
    trace_hits = 0;
    trace_fills = 0;
    fill_seconds = 0.0;
    vm_events = 0;
    replayed_events = 0;
    db_hits = 0;
    warm_starts = 0;
    sampled = 0;
    batched_groups = 0;
    batched_candidates = 0;
    repriced = 0;
    repriced_joint = 0;
    confirmed = 0;
    confirm_skipped = 0;
  }

(* The canonical identity of a measurement.  [fp_shape] is a structural
   digest of the variant recipe, so two variants that happen to share a
   name (e.g. the experiment harness rebuilding "table1_mm" with
   different tile sets) cannot alias each other's measurements.  [check]
   is part of the key: a point measured with constraint checking off
   must never satisfy a lookup that expects pruning. *)
type fingerprint = {
  fp_kernel : string;
  fp_variant : string;
  fp_shape : string;
  fp_n : int;
  fp_mode : Executor.mode;
  fp_bindings : (string * int) list;
  fp_prefetch : (string * int) list;
  fp_check : bool;
  fp_sampled : bool;
      (* measured as a sampled estimate: never interchangeable with an
         exact measurement of the same point *)
}

(* Infeasible, pruned and failed points are cached too, with their typed
   reason, so pruning and quarantine are paid once per point. *)
type memo_entry =
  | Measured_entry of Executor.measurement
  | Pruned_entry
  | Failed_entry of failure_reason

type t = {
  machine : Machine.t;
  faults : Faults.t;
  protocol : protocol;
  memo : (fingerprint, memo_entry) Hashtbl.t;
  (* variant-shape digests, cached by physical identity: variants are
     long-lived values created once per derivation *)
  mutable shapes : (Variant.t * string) list;
  (* Bounded demand-trace LRU (MRU first) for the incremental
     re-pricer, keyed by the request fingerprint normalized to no
     prefetch: every sweep group at one variant point shares one
     captured demand trace.  Nothing else captures traces. *)
  mutable traces : (fingerprint * Demand_trace.t) list;
  mutable trace_words : int;
  (* crash-only persistence: (file, tag, every) once configured *)
  mutable checkpoint : (string * string * int) option;
  (* [Some due] while a batch with a sweep group commits: a checkpoint
     falling due meanwhile ([due]) and the interruption point wait for
     the batch's last commit, so no checkpoint holds part of a group. *)
  mutable held : bool option;
  (* The re-pricer's verdicts: how many requests of each point it
     priced away ([verdicts]) and, after a resume, how many of those the
     replaying search has yet to meet ([replay]).  Re-priced points are
     not memoized, so a checkpoint carries their verdicts. *)
  verdicts : (fingerprint, int) Hashtbl.t;
  replay : (fingerprint, int) Hashtbl.t;
  mutable eval_limit : int option;
  (* Cooperative interruption (the autotuning service's cancel tokens,
     per-request deadlines and watchdog ride on these):
     [poll] runs after every fresh evaluation and at every batch
     boundary and may raise to abort the search; [yield_hook] runs at
     batch boundaries only — the engine is quiescent there, so a
     scheduler may suspend the whole search and run another one on the
     same engine; [deadline] is an absolute wall-clock instant past
     which evaluation raises [Deadline_exceeded]. *)
  mutable poll : (unit -> unit) option;
  mutable yield_hook : (unit -> unit) option;
  mutable deadline : float option;
  (* Graceful degradation of the persistent database tier: the first
     I/O failure detaches the store and records why, instead of
     crashing the search that happened to trigger the write. *)
  mutable db_degraded : string option;
  (* Two-stage evaluation: with [prefilter = Some k], each batch is
     ranked by the analytical model under [objective] and only the
     top-k candidates are simulated. *)
  objective : Objective.t;
  prefilter : int option;
  (* prepared model analyses, keyed by (variant shape digest, n) *)
  preds : (string * int, Predict.prepared) Hashtbl.t;
  (* Persistent performance database: exact hits served from disk like
     memo hits (but surviving across runs), fresh successful
     measurements appended back.  [db_ctx] pins everything outside the
     fingerprint that shapes measured values (machine, fault plan,
     aggregation protocol), so a record can only satisfy a lookup made
     under the same conditions.  [db_warm] gates the transfer
     warm-start stage in [Search]. *)
  mutable db : Perfdb.t option;
  mutable db_warm : bool;
  mutable db_ctx : string;
  (* Sampled / incremental replay (the evaluator tiers of DESIGN.md
     section 12).  [sampling] turns measurements into sampled
     estimates; [incremental] re-prices distance-only siblings of a
     sweep group from the base plan's prefetch-timeliness slacks. *)
  mutable sampling : Memsim.Sampling.t option;
  mutable incremental : bool;
  (* Adaptive confirmation (Search.confirm_best): the [--confirm]
     override and the observed estimator rank quality per kernel on
     this machine — (separated pairs, inversions) between estimate
     order and the exact confirms already performed. *)
  mutable confirm_override : int option;
  rank_stats : (string, int * int) Hashtbl.t;
  (* Every telemetry counter, bumped in place; a checkpoint stores the
     record whole and a resume replaces it. *)
  mutable stats : stats;
}

let max_trace_entries = 8
let max_trace_words = 6_000_000

let create ?(faults = Faults.none) ?(protocol = default_protocol)
    ?(objective = Objective.Cycles) ?prefilter machine =
  let prefilter =
    match prefilter with Some k when k >= 1 -> Some k | _ -> None
  in
  let protocol =
    {
      protocol with
      trials = max 1 protocol.trials;
      max_retries = max 0 protocol.max_retries;
    }
  in
  {
    machine;
    faults;
    protocol;
    memo = Hashtbl.create 256;
    shapes = [];
    traces = [];
    trace_words = 0;
    checkpoint = None;
    held = None;
    verdicts = Hashtbl.create 16;
    replay = Hashtbl.create 16;
    eval_limit = None;
    poll = None;
    yield_hook = None;
    deadline = None;
    db_degraded = None;
    objective;
    prefilter;
    preds = Hashtbl.create 16;
    db = None;
    db_warm = false;
    db_ctx = "";
    sampling = None;
    incremental = false;
    confirm_override = None;
    rank_stats = Hashtbl.create 4;
    stats = zero_stats ();
  }

let machine t = t.machine
let protocol t = t.protocol
let objective t = t.objective
let prefilter t = t.prefilter

(* The engine's default top-k: matches [Eco]'s triage width, so a
   pre-filtered batch keeps as many live candidates as the variant
   triage does. *)
let default_prefilter = 4

let sampling t = t.sampling
let set_sampling t sp = t.sampling <- sp
let set_incremental t b = t.incremental <- b

(* Adaptive confirmation plumbing: [Search.confirm_best] owns the
   policy; the engine owns the per-kernel rank-quality evidence and the
   [--confirm] override so they persist across the per-variant search
   states of one run. *)
let confirm_override t = t.confirm_override

let set_confirm_override t k =
  t.confirm_override <- (match k with Some k -> Some (max 1 k) | None -> None)

let rank_quality t ~kernel =
  match Hashtbl.find_opt t.rank_stats kernel with
  | Some pq -> pq
  | None -> (0, 0)

let record_rank_sample t ~kernel ~pairs ~inversions =
  if pairs > 0 then begin
    let p0, i0 = rank_quality t ~kernel in
    Hashtbl.replace t.rank_stats kernel (p0 + pairs, i0 + inversions)
  end

(* A snapshot: the engine keeps bumping its own record. *)
let stats t = { t.stats with hits = t.stats.hits }

let failure_breakdown (s : stats) =
  List.filter
    (fun (_, n) -> n > 0)
    [
      ("infeasible", s.failed_infeasible);
      ("malformed", s.failed_malformed);
      ("transient", s.failed_transient);
      ("timeout", s.failed_timeout);
      ("quarantined", s.failed_quarantined);
    ]

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "%d fresh evaluations, %d memo hits, %d pruned, %d failed, %.0f simulated \
     cycles, %.2fs evaluating"
    s.fresh s.hits s.pruned s.failed s.simulated_cycles s.eval_seconds;
  if s.prefiltered > 0 then
    Format.fprintf fmt ", %d pre-filtered" s.prefiltered;
  (match failure_breakdown s with
  | [] -> ()
  | parts ->
    Format.fprintf fmt " (failures: %s)"
      (String.concat ", "
         (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) parts)));
  if s.retries > 0 then Format.fprintf fmt ", %d retries" s.retries;
  if s.db_hits > 0 then Format.fprintf fmt ", %d db hits" s.db_hits;
  if s.warm_starts > 0 then
    Format.fprintf fmt ", %d warm-start seeds" s.warm_starts;
  if s.sampled > 0 then Format.fprintf fmt ", %d sampled" s.sampled;
  if s.repriced > 0 then begin
    Format.fprintf fmt ", %d re-priced" s.repriced;
    if s.repriced_joint > 0 then
      Format.fprintf fmt " (%d joint)" s.repriced_joint
  end;
  if s.confirmed > 0 || s.confirm_skipped > 0 then
    Format.fprintf fmt ", %d confirmed (%d skipped)" s.confirmed
      s.confirm_skipped

let pp_profile fmt (s : stats) =
  Format.fprintf fmt
    "compile %.3fs, execute %.3fs, simulate %.3fs, memo %.3fs; demand-trace \
     cache: %d hits, %d fills (%.3fs)"
    s.compile_seconds s.exec_seconds s.sim_seconds s.memo_seconds s.trace_hits
    s.trace_fills s.fill_seconds;
  Format.fprintf fmt "; simulator work: %d VM events, %d replayed" s.vm_events
    s.replayed_events;
  if s.trials_run > 0 || s.retries > 0 || s.early_stops > 0 then
    Format.fprintf fmt "; protocol: %d trials, %d retries, %d early stops"
      s.trials_run s.retries s.early_stops;
  if s.model_evals > 0 || s.prefiltered > 0 then
    Format.fprintf fmt
      "; prefilter: %d model evals %.3fs, %d candidates skipped, %d simulated"
      s.model_evals s.model_seconds s.prefiltered s.fresh;
  if s.batched_groups > 0 then
    Format.fprintf fmt "; batched replay: %d groups covering %d candidates"
      s.batched_groups s.batched_candidates;
  if s.repriced > 0 then
    Format.fprintf fmt
      "; incremental: %d candidates re-priced without replay (%d by joint \
       multi-array slacks)"
      s.repriced s.repriced_joint;
  if s.confirmed > 0 || s.confirm_skipped > 0 then
    Format.fprintf fmt
      "; confirmation: %d exact leaderboard confirms, %d skipped adaptively"
      s.confirmed s.confirm_skipped

let request ?(check = true) ?(prefetch = []) variant ~n ~mode ~bindings =
  { variant; n; mode; bindings; prefetch; check }

let canonical r =
  {
    r with
    bindings = List.sort compare r.bindings;
    prefetch = List.sort compare r.prefetch;
  }

let shape_digest t v =
  match List.assq_opt v t.shapes with
  | Some d -> d
  | None ->
    (* Everything that determines the instantiated program except the
       bindings (pure data; the kernel's closure is excluded — the
       kernel is identified by name in the fingerprint). *)
    let d =
      Digest.to_hex
        (Digest.string
           (Marshal.to_string
              ( v.Variant.element_order,
                v.Variant.tiles,
                v.Variant.unrolls,
                v.Variant.copies,
                v.Variant.constraints )
              []))
    in
    t.shapes <- (v, d) :: t.shapes;
    d

let fingerprint t (r : request) =
  {
    fp_kernel = r.variant.Variant.kernel.Kernels.Kernel.name;
    fp_variant = r.variant.Variant.name;
    fp_shape = shape_digest t r.variant;
    fp_n = r.n;
    fp_mode = r.mode;
    fp_bindings = r.bindings;
    fp_prefetch = r.prefetch;
    fp_check = r.check;
    fp_sampled = t.sampling <> None;
  }

(* Stable candidate identity for keying fault streams: the same
   candidate draws the same faults regardless of evaluation order,
   batch membership or measurement route (direct vs sweep group). *)
let fault_key fp =
  let kvs l =
    String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) l)
  in
  String.concat "|"
    [
      fp.fp_kernel;
      fp.fp_variant;
      fp.fp_shape;
      string_of_int fp.fp_n;
      (match fp.fp_mode with
      | Executor.Full -> "full"
      | Executor.Budget b -> "budget:" ^ string_of_int b);
      kvs fp.fp_bindings;
      kvs fp.fp_prefetch;
      string_of_bool fp.fp_check;
    ]
  (* appended only for sampled estimates, so every pre-existing key is
     unchanged *)
  ^ (if fp.fp_sampled then "|sampled" else "")

(* --- persistent performance database --------------------------------- *)

(* The database key is the candidate's canonical identity ([fault_key],
   which already spells out kernel/variant shape/n/mode/point) digested
   together with the measurement context: the machine, the fault plan
   and the aggregation protocol.  The search objective is deliberately
   excluded (it steers choices, not measured values). *)
let db_context machine (faults : Faults.t) (p : protocol) =
  String.concat "|"
    [
      machine.Machine.name;
      Faults.to_spec faults;
      string_of_int p.trials;
      string_of_int p.max_retries;
      string_of_int p.min_trials;
      string_of_float p.spread_rtol;
      string_of_float p.cycle_cap;
    ]

let set_db t ?(warm_start = true) db =
  t.db <- Some db;
  t.db_warm <- warm_start;
  t.db_ctx <- db_context t.machine t.faults t.protocol

let db t = t.db

(* Quarantine the store: detach it, remember why (first failure wins),
   keep serving from the in-memory memo.  Called on the first database
   I/O failure — and by the autotuning daemon when a shared store turns
   out corrupt at load time. *)
let degrade_db t reason =
  t.db <- None;
  t.db_warm <- false;
  if t.db_degraded = None then t.db_degraded <- Some reason

let db_degraded t = t.db_degraded

(* The database to warm-start from, when transfer seeding is enabled. *)
let warm_db t = if t.db_warm then t.db else None

let note_warm_start t = t.stats.warm_starts <- t.stats.warm_starts + 1

let db_key t fp = Digest.to_hex (Digest.string (t.db_ctx ^ "||" ^ fault_key fp))

(* --- analytical pre-filter ------------------------------------------- *)

let prepared t (r : request) =
  let key = (shape_digest t r.variant, r.n) in
  match Hashtbl.find_opt t.preds key with
  | Some p -> p
  | None ->
    let p = Predict.prepare r.variant ~n:r.n in
    Hashtbl.add t.preds key p;
    p

(* Rank score of one candidate under the engine's objective.  A
   candidate the model cannot score ranks first (negative infinity):
   never skip what cannot be ranked. *)
let model_score t (r : request) =
  let t0 = Unix_time.now () in
  let s =
    match
      Predict.score ~objective:t.objective t.machine (prepared t r)
        ~bindings:r.bindings ~prefetch:r.prefetch
    with
    | s when Float.is_nan s -> neg_infinity
    | s -> s
    | exception _ -> neg_infinity
  in
  let st = t.stats in
  st.model_evals <- st.model_evals + 1;
  st.model_seconds <- st.model_seconds +. (Unix_time.now () -. t0);
  s

(* Insert a prefetch plan into an instantiated program. *)
let with_prefetches machine program prefetch =
  let line = Machine.line_elems machine 0 in
  List.fold_left
    (fun p (array, distance) ->
      Transform.Prefetch_insert.apply p ~array ~distance ~line_elems:line)
    program prefetch

let build_program machine (r : request) =
  match Variant.instantiate r.variant ~bindings:r.bindings with
  | exception Invalid_argument _ -> None
  | program -> Some (with_prefetches machine program r.prefetch)

let build t r = build_program t.machine (canonical r)

(* Serve a memo miss from the on-disk exact-hit tier: unmarshal the
   persisted measurement, value-identical to a fresh simulation.  An
   unreadable payload falls through to a fresh simulation rather than
   failing the request. *)
let db_serve t ?log fp =
  (* Sampled estimates never enter or leave the database: it stores
     exact measurements only. *)
  if fp.fp_sampled then None
  else
  match t.db with
  | None -> None
  | Some db -> (
    match Perfdb.find_measurement db ~key:(db_key t fp) with
    | None -> None
    | Some payload -> (
      match (Marshal.from_string payload 0 : Executor.measurement) with
      | exception _ -> None
      | m ->
        Hashtbl.replace t.memo fp (Measured_entry m);
        t.stats.db_hits <- t.stats.db_hits + 1;
        (match log with Some log -> Search_log.note_db_hit log | None -> ());
        Some { measurement = m; cached = true }))

(* Persist one fresh successful measurement.  Only the [Measured] arm of
   [commit] calls this: pruned, failed and quarantined candidates must
   never become database entries, and the key-level dedup makes resumed
   runs (which replay a prefix) append-idempotent. *)
let db_append t (r : request) fp (m : Executor.measurement) =
  if fp.fp_sampled then ()
  else
  match t.db with
  | None -> ()
  | Some db -> (
    match
      Perfdb.add_measurement db ~key:(db_key t fp)
        ~kernel:r.variant.Variant.kernel.Kernels.Kernel.name
        ~machine:t.machine.Machine.name ~n:r.n
        ~payload:(Marshal.to_string m [])
    with
    | _ -> ()
    | exception e ->
      (* An unappendable store (disk full, permissions, torn channel)
         degrades the persistence tier; it must not kill the search
         that happened to trigger the write. *)
      degrade_db t (Printexc.to_string e))

(* --- one clean (deterministic) measurement --------------------------- *)

(* A candidate's measurement before the protocol tail.
   [Invalid_argument] escapes [clean_simulate] to [measure_direct],
   which maps it to a typed reason. *)
type clean =
  | Clean of Executor.measurement
  | Clean_infeasible
  | Clean_failed of failure_reason

(* Measure a candidate directly: instantiate it and run it through the
   VM. *)
let clean_simulate ?sampling ~work machine (r : request) =
  if r.check && not (Variant.feasible r.variant ~n:r.n r.bindings) then
    Clean_infeasible
  else
    match build_program machine r with
    | None -> Clean_failed Infeasible_instantiation
    | Some program ->
      Clean
        (Executor.measure ?sampling ~work machine r.variant.Variant.kernel
           ~n:r.n ~mode:r.mode program)

(* --- the resilient measurement protocol ------------------------------ *)

type raw =
  | Measured of Executor.measurement
  | Infeasible
  | Failed of failure_reason

(* Book the simulator's work behind a measurement. *)
let add_work t (work : Executor.work) =
  let s = t.stats in
  s.vm_events <- s.vm_events + work.Executor.vm_events;
  s.replayed_events <- s.replayed_events + work.Executor.replayed_events

(* Book [f]'s wall time as evaluation time. *)
let timed t f =
  let t0 = Unix_time.now () in
  let x = f () in
  t.stats.eval_seconds <- t.stats.eval_seconds +. (Unix_time.now () -. t0);
  x

(* The protocol tail, applied to one candidate's clean measurement —
   whether it came from the candidate's own simulation or from a sweep
   group:

   - a deterministic simulated-cycle overrun is a final [Timeout];
   - with an active fault plan or repeated trials, each of
     [protocol.trials] trials draws its fate from the plan: transient
     failures and hangs are retried up to [protocol.max_retries] times,
     and exhausting the budget quarantines the candidate;
   - surviving trial samples are aggregated (median / trimmed mean, see
     {!Faults.aggregate}) with an adaptive early stop once the relative
     spread is tight.

   Every random draw is keyed by [(key, trial, attempt)], so a
   candidate's outcome is identical in any evaluation order and on any
   measurement route.  Trials, retries and early stops are booked in
   the engine's counters as they happen. *)
let protect ?(trial_base = 0) t ~(protocol : protocol) ~key clean =
  let s = t.stats in
  match clean with
  | Clean_infeasible -> Infeasible
  | Clean_failed reason -> Failed reason
  | Clean m -> (
    let c0 = Executor.cycles m in
    if c0 > protocol.cycle_cap then Failed Timeout
    else if (not t.faults.Faults.active) && protocol.trials <= 1 then
      (* the legacy path: no draws, no aggregation, the measurement
         exactly as simulated *)
      Measured m
    else begin
      let n_trials = protocol.trials in
      let samples = Array.make n_trials 0.0 in
      let filled = ref 0 in
      let failure = ref None in
      (try
         for trial = 0 to n_trials - 1 do
           let rec attempt a =
             match
               Faults.draw t.faults ~key ~trial:(trial_base + trial) ~attempt:a
             with
             | Faults.Sample mult ->
               let c = c0 *. mult in
               if c > protocol.cycle_cap then retry_or a Timeout else Ok c
             | Faults.Transient_failure -> retry_or a Transient
             | Faults.Hang -> retry_or a Timeout
           and retry_or a reason =
             if a >= protocol.max_retries then
               Error (if protocol.max_retries > 0 then Quarantined else reason)
             else begin
               s.retries <- s.retries + 1;
               attempt (a + 1)
             end
           in
           (match attempt 0 with
           | Ok c ->
             samples.(!filled) <- c;
             incr filled;
             s.trials_run <- s.trials_run + 1;
             if
               !filled >= max 2 protocol.min_trials
               && !filled < n_trials
               && Faults.rel_spread (Array.sub samples 0 !filled)
                  <= protocol.spread_rtol
             then begin
               s.early_stops <- s.early_stops + 1;
               raise Exit
             end
           | Error reason ->
             failure := Some reason;
             raise Exit)
         done
       with Exit -> ());
      match !failure with
      | Some reason -> Failed reason
      | None ->
        let agg = Faults.aggregate (Array.sub samples 0 !filled) in
        Measured (if agg = c0 then m else Executor.perturb m (agg /. c0))
    end)

(* --- demand-trace LRU ------------------------------------------------ *)

let trace_key fp = { fp with fp_prefetch = []; fp_check = false }

let trace_find t key =
  let rec go acc = function
    | [] -> None
    | ((k, dt) as entry) :: rest ->
      if k = key then begin
        t.traces <- entry :: List.rev_append acc rest;
        t.stats.trace_hits <- t.stats.trace_hits + 1;
        Some dt
      end
      else go (entry :: acc) rest
  in
  go [] t.traces

let trace_add t key dt =
  let w = Demand_trace.words dt in
  if w <= max_trace_words then begin
    t.traces <- (key, dt) :: t.traces;
    t.trace_words <- t.trace_words + w;
    let rec prune n = function
      | [] -> []
      | (_, dt') :: rest
        when n >= max_trace_entries || t.trace_words > max_trace_words ->
        t.trace_words <- t.trace_words - Demand_trace.words dt';
        prune n rest
      | e :: rest -> e :: prune (n + 1) rest
    in
    t.traces <- prune 0 t.traces
  end

(* Capture the demand trace for a prefetch request's base point and
   cache it.  [None] when the variant fails to instantiate or the
   program is malformed — the candidate then takes the direct path,
   which fails with the same typed reason. *)
let trace_fill t (r : request) key =
  let t0 = Unix_time.now () in
  Fun.protect ~finally:(fun () ->
      t.stats.fill_seconds <- t.stats.fill_seconds +. (Unix_time.now () -. t0))
  @@ fun () ->
  match Variant.instantiate r.variant ~bindings:r.bindings with
  | exception Invalid_argument _ -> None
  | demand -> (
    let work = Executor.work () in
    match
      (* Sampled estimates replay a trace generated at the shrunken
         budget ([Executor.effective_mode]); [trace_key] keeps the
         sampled flag, so sampled and exact traces never alias. *)
      Demand_trace.capture ~work t.machine r.variant.Variant.kernel ~n:r.n
        ~mode:(Executor.effective_mode t.sampling r.mode)
        demand
    with
    | exception Invalid_argument _ -> None
    | dt ->
      t.stats.trace_fills <- t.stats.trace_fills + 1;
      add_work t work;
      trace_add t key dt;
      Some dt)

(* Can a candidate join a re-priced sweep group?  It needs a prefetch
   plan whose every distance is at least 1 (a shorter one has no
   program: building it fails as [Malformed_program] on the direct
   route), at a feasible or unchecked point (an infeasible one is
   pruned there). *)
let traceable (r : request) =
  r.prefetch <> []
  && List.for_all (fun (_, d) -> d >= 1) r.prefetch
  && ((not r.check) || Variant.feasible r.variant ~n:r.n r.bindings)

(* Find or capture the demand trace of a re-priced sweep group's base
   point; [None] for an uncapturable point (its members are then
   measured directly).  Reuse counts a trace hit; the capturing group
   itself does not. *)
let group_trace t (r : request) fp =
  let key = trace_key fp in
  match trace_find t key with
  | Some dt -> Some dt
  | None -> trace_fill t r key

(* Measure one memo miss on its own: a direct measurement, then the
   [protect] tail.  [Invalid_argument] from building or running the
   program is a malformed program; any other exception is a bug and
   propagates. *)
let measure_direct ?protocol ?trial_base t (r : request) fp =
  let protocol = Option.value protocol ~default:t.protocol in
  timed t @@ fun () ->
  let work = Executor.work () in
  let clean =
    try clean_simulate ?sampling:t.sampling ~work t.machine r
    with Invalid_argument _ -> Clean_failed Malformed_program
  in
  add_work t work;
  protect ?trial_base t ~protocol ~key:(fault_key fp) clean

(* --- crash-only checkpointing ---------------------------------------- *)

exception Checkpoint_mismatch of string
exception Eval_limit_reached of int
exception Deadline_exceeded

type resume = {
  resumed_entries : int;
  resumed_fresh : int;
  resumed_best_cycles : float option;
}

(* Everything a killed search needs to resume to the identical final
   answer: the memo table of measurements and the re-pricer's verdicts
   (the search replays deterministically against them, so together they
   are the search cursor) plus the whole counter record, so resumed
   stats line up with an uninterrupted run.  Demand traces and shape
   digests are caches and are rebuilt on demand; the replay re-records
   the rank-quality table, so restoring it would count it twice. *)
type checkpoint_blob = {
  ck_tag : string;
  ck_machine : string;
  ck_entries : (fingerprint * memo_entry) array;
  ck_verdicts : (fingerprint * int) array;
  ck_stats : stats;
  ck_best : float option;
}

(* Version 9: the re-pricer's verdicts, and no rank-quality table.
   v8: the [stats] record counts the simulator's work (VM events,
   replayed events).  v7: memo entries hold measurements without their
   programs, and the counters are one [stats] record,
   demand-trace counters included (v6 dropped the fast-path fallback
   counter, v5 added the joint-repricing and adaptive-confirmation
   counters plus the per-kernel rank-quality table, v4 the fingerprint
   sampled flag and the batched/sampled/repriced counters, v3 the
   performance-database counters, v2 the pre-filter counters).  Old
   files fail the magic check and load as "corrupt" -- crash-only
   semantics, the run starts fresh instead of mis-restoring
   counters. *)
let checkpoint_magic = "ECO-CHECKPOINT-9\n"

(* The best exact cycles in the memo, for the checkpoint's resume
   line.  Exact entries only: sampled estimates may sit below the
   truth, and the line reports a floor that real measurements actually
   reached. *)
let best_cycles t =
  Hashtbl.fold
    (fun fp entry acc ->
      match entry with
      | Measured_entry m when not fp.fp_sampled -> (
        let c = Executor.cycles m in
        match acc with Some b when b <= c -> acc | _ -> Some c)
      | Measured_entry _ | Pruned_entry | Failed_entry _ -> acc)
    t.memo None

let save_checkpoint t =
  match t.checkpoint with
  | None -> ()
  | Some (file, tag, _) ->
    let blob =
      {
        ck_tag = tag;
        ck_machine = t.machine.Machine.name;
        ck_entries =
          Array.of_seq
            (Seq.map (fun (k, v) -> (k, v)) (Hashtbl.to_seq t.memo));
        ck_verdicts = Array.of_seq (Hashtbl.to_seq t.verdicts);
        ck_stats = t.stats;
        ck_best = best_cycles t;
      }
    in
    (* Write-then-rename: a kill at any instant leaves either the old
       complete checkpoint or the new complete one, never a torn file.
       The payload streams into the file without Marshal's sharing table
       (memo values are acyclic, which [No_sharing] needs) and without
       a string copy of the blob: the table holds one entry per heap
       block of the memo, so the two together would set the peak
       memory of a checkpointing tune, on every periodic write.  Its
       digest is read back from the written bytes and patched into the
       placeholder before the rename, so the layout is unchanged. *)
    let tmp = file ^ ".tmp" in
    let oc = open_out_bin tmp in
    output_string oc checkpoint_magic;
    output_string oc (String.make 16 '\000');
    Marshal.to_channel oc blob [ Marshal.No_sharing ];
    flush oc;
    let ic = open_in_bin tmp in
    seek_in ic (String.length checkpoint_magic + 16);
    let digest = Digest.channel ic (-1) in
    close_in ic;
    seek_out oc (String.length checkpoint_magic);
    output_string oc digest;
    close_out oc;
    Sys.rename tmp file

let set_checkpoint t ?(every = 16) ~tag file =
  t.checkpoint <- Some (file, tag, max 1 every)

let checkpoint_now t = save_checkpoint t

let read_blob file =
  match open_in_bin file with
  | exception Sys_error _ -> None
  | ic ->
    let blob =
      try
        let len = in_channel_length ic in
        let magic_len = String.length checkpoint_magic in
        if len < magic_len + 16 then None
        else begin
          let magic = really_input_string ic magic_len in
          if magic <> checkpoint_magic then None
          else begin
            let digest = really_input_string ic 16 in
            let payload = really_input_string ic (len - magic_len - 16) in
            if Digest.string payload <> digest then None
            else
              match (Marshal.from_string payload 0 : checkpoint_blob) with
              | blob -> Some blob
              | exception _ -> None
          end
        end
      with _ -> None
    in
    close_in ic;
    blob

let load_checkpoint t ~tag file =
  if not (Sys.file_exists file) then None
  else
    match read_blob file with
    | None -> None (* corrupt or truncated: recover by starting fresh *)
    | Some ck ->
      if ck.ck_tag <> tag then
        raise
          (Checkpoint_mismatch
             (Printf.sprintf
                "checkpoint %s was written by a different run configuration \
                 (%s, expected %s)"
                file ck.ck_tag tag));
      if ck.ck_machine <> t.machine.Machine.name then
        raise
          (Checkpoint_mismatch
             (Printf.sprintf
                "checkpoint %s was written for machine %s, engine targets %s"
                file ck.ck_machine t.machine.Machine.name));
      Array.iter (fun (fp, e) -> Hashtbl.replace t.memo fp e) ck.ck_entries;
      Hashtbl.reset t.verdicts;
      Hashtbl.reset t.replay;
      Array.iter
        (fun (fp, k) ->
          Hashtbl.replace t.verdicts fp k;
          Hashtbl.replace t.replay fp k)
        ck.ck_verdicts;
      t.stats <- ck.ck_stats;
      Some
        {
          resumed_entries = Array.length ck.ck_entries;
          resumed_fresh = ck.ck_stats.fresh;
          resumed_best_cycles = ck.ck_best;
        }

let set_eval_limit t limit = t.eval_limit <- Some limit
let set_poll t f = t.poll <- f
let set_yield t f = t.yield_hook <- f
let set_deadline t d = t.deadline <- d

(* Cooperative interruption point: the poll hook first (a service
   cancel token may raise), then the engine-level wall deadline.  Runs
   after checkpoint persistence in [after_fresh], so whatever aborts
   the search leaves the latest periodic checkpoint behind — aborting
   is resumable by construction. *)
let interrupt t =
  (match t.poll with Some f -> f () | None -> ());
  match t.deadline with
  | Some d when Unix_time.now () > d -> raise Deadline_exceeded
  | _ -> ()

(* Batch boundary: the engine is quiescent (no batch mid-commit), so
   beyond polling it is safe to suspend the whole search here — the
   autotuning service's yield hook performs an effect to interleave
   sessions on one shared engine. *)
let batch_boundary t =
  interrupt t;
  match t.yield_hook with Some f -> f () | None -> ()

(* Periodic persistence and crash injection, in that order: a run killed
   by the evaluation limit behaves like a SIGKILL — only the last
   periodic checkpoint survives.  The interruption point sits between
   the two, so a cancel or deadline fires with the checkpoint already
   durable.  While a batch is [held], persistence and the interruption
   point wait for its last commit ([holding]); crash injection does
   not. *)
let after_fresh t =
  let due =
    match t.checkpoint with
    | Some (_, _, every) -> t.stats.fresh mod every = 0
    | None -> false
  in
  (match t.held with
  | Some held -> t.held <- Some (held || due)
  | None ->
    if due then save_checkpoint t;
    interrupt t);
  match t.eval_limit with
  | Some limit when t.stats.fresh >= limit -> raise (Eval_limit_reached limit)
  | _ -> ()

(* --- commit and serve ------------------------------------------------- *)

(* One fresh measurement's share of the telemetry. *)
let count_fresh t (m : Executor.measurement) =
  let s = t.stats in
  s.fresh <- s.fresh + 1;
  s.simulated_cycles <- s.simulated_cycles +. Executor.cycles m;
  s.compile_seconds <- s.compile_seconds +. m.timings.compile_s;
  s.exec_seconds <- s.exec_seconds +. m.timings.exec_s;
  s.sim_seconds <- s.sim_seconds +. m.timings.sim_s

let count_failure t reason =
  let s = t.stats in
  s.failed <- s.failed + 1;
  match reason with
  | Infeasible_instantiation -> s.failed_infeasible <- s.failed_infeasible + 1
  | Malformed_program -> s.failed_malformed <- s.failed_malformed + 1
  | Transient -> s.failed_transient <- s.failed_transient + 1
  | Timeout -> s.failed_timeout <- s.failed_timeout + 1
  | Quarantined -> s.failed_quarantined <- s.failed_quarantined + 1

(* Commit one fresh result: memo table, telemetry, log — always in
   request order. *)
let commit t ?log (r : request) fp raw =
  match raw with
  | Measured m ->
    Hashtbl.replace t.memo fp (Measured_entry m);
    db_append t r fp m;
    count_fresh t m;
    if fp.fp_sampled then t.stats.sampled <- t.stats.sampled + 1;
    (match log with
    | Some log ->
      Search_log.record log
        {
          Search_log.variant = r.variant.Variant.name;
          bindings = r.bindings;
          prefetch = r.prefetch;
          cycles = Executor.cycles m;
          mflops = m.Executor.mflops;
        }
    | None -> ());
    after_fresh t;
    Some { measurement = m; cached = false }
  | Infeasible ->
    Hashtbl.replace t.memo fp Pruned_entry;
    t.stats.pruned <- t.stats.pruned + 1;
    (match log with Some log -> Search_log.note_pruned log | None -> ());
    None
  | Failed reason ->
    Hashtbl.replace t.memo fp (Failed_entry reason);
    count_failure t reason;
    (match log with Some log -> Search_log.note_failed log | None -> ());
    None

let serve_hit t ?log entry =
  t.stats.hits <- t.stats.hits + 1;
  (match log with Some log -> Search_log.note_hit log | None -> ());
  match entry with
  | Measured_entry m -> Some { measurement = m; cached = true }
  | Pruned_entry | Failed_entry _ -> None

let evaluate t ?log r =
  let r = canonical r in
  interrupt t;
  let fp = fingerprint t r in
  let t0 = Unix_time.now () in
  let entry = Hashtbl.find_opt t.memo fp in
  t.stats.memo_seconds <- t.stats.memo_seconds +. (Unix_time.now () -. t0);
  match entry with
  | Some entry -> serve_hit t ?log entry
  | None -> (
    match db_serve t ?log fp with
    | Some ev -> Some ev
    | None -> commit t ?log r fp (measure_direct t r fp))

let explain t r =
  match Hashtbl.find_opt t.memo (fingerprint t (canonical r)) with
  | Some (Measured_entry _) -> `Measured
  | Some Pruned_entry -> `Pruned
  | Some (Failed_entry reason) -> `Failed reason
  | None -> `Unknown

(* Is the engine fighting a noisy substrate?  When it is, searches run a
   confirmation pass over their leading candidates before declaring a
   winner (the standard defence against the winner's curse: the minimum
   over many noisy values is biased low). *)
let confirming t = Faults.noisy t.faults && t.protocol.trials > 1

(* Confirmation trials draw from a reserved band of trial indices, so
   they are fresh randomness — independent of the draws that produced
   the memoized search measurement — yet still a pure function of the
   candidate. *)
let confirm_trial_base = 1_000_000

let confirm t r ~trials =
  let r = canonical r in
  if not (confirming t) then
    Option.map (fun ev -> ev.measurement) (evaluate t r)
  else begin
    let fp = fingerprint t r in
    let trials = max 1 trials in
    (* min_trials = trials disables the adaptive early stop: a
       confirmation wants the full sample. *)
    let protocol = { t.protocol with trials; min_trials = trials } in
    match measure_direct t r fp ~protocol ~trial_base:confirm_trial_base with
    | Measured m ->
      count_fresh t m;
      after_fresh t;
      Some m
    | Infeasible -> None
    | Failed reason ->
      count_failure t reason;
      None
  end

let note_prefiltered t ?log () =
  t.stats.prefiltered <- t.stats.prefiltered + 1;
  match log with Some log -> Search_log.note_prefiltered log | None -> ()

let note_repriced t ?log () =
  t.stats.repriced <- t.stats.repriced + 1;
  match log with Some log -> Search_log.note_repriced log | None -> ()

(* Commit the re-pricer's verdict on [fp]: not measured, not memoized,
   journaled for checkpoints. *)
let reprice t ?log fp =
  let k = Option.value ~default:0 (Hashtbl.find_opt t.verdicts fp) in
  Hashtbl.replace t.verdicts fp (k + 1);
  note_repriced t ?log ();
  None

(* A resumed search meets the dead run's re-priced requests again, in
   their order: every verdict on a point precedes its first
   measurement, so the next request of a point with a verdict left to
   replay is that verdict's. *)
let replays_verdict t fp =
  match Hashtbl.find_opt t.replay fp with
  | None -> false
  | Some k ->
    if k = 1 then Hashtbl.remove t.replay fp
    else Hashtbl.replace t.replay fp (k - 1);
    true

(* Run a batch with a sweep group held (see [after_fresh]): a resumed
   search re-forms a group from the members its memo lacks, around
   another base plan, so a checkpoint must not hold part of one. *)
let holding t pass =
  t.held <- Some false;
  match pass () with
  | evs ->
    let due = t.held = Some true in
    t.held <- None;
    if due then save_checkpoint t;
    interrupt t;
    evs
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    t.held <- None;
    Printexc.raise_with_backtrace e bt

let note_confirmed t ?log () =
  t.stats.confirmed <- t.stats.confirmed + 1;
  match log with Some log -> Search_log.note_confirmed log | None -> ()

let note_confirm_skipped t = t.stats.confirm_skipped <- t.stats.confirm_skipped + 1

(* One re-priced sweep group, measured at its first member's slot:
   [members] share one demand-trace key, and the result is one [raw
   option] per member.  Distance-only siblings are re-priced from the
   base plan's slack samples ([Demand_trace.reprice_group]), and a
   re-priced member comes back as [None]; a group the re-pricer cannot
   price is measured plan by plan from the captured trace
   ([Demand_trace.measure_plans]).  Every measured member then goes
   through [protect], exactly as if it had been measured on its own. *)
let measure_group t members =
  let r0, fp0 = members.(0) in
  match group_trace t r0 fp0 with
  | None ->
    (* trace capture failed: every member is measured directly *)
    Array.map (fun (r, fp) -> Some (measure_direct t r fp)) members
  | Some dt ->
    let s = t.stats in
    s.batched_groups <- s.batched_groups + 1;
    s.batched_candidates <- s.batched_candidates + Array.length members;
    let sampling = t.sampling and kernel = r0.variant.Variant.kernel in
    let plans = Array.map (fun ((r : request), _) -> r.prefetch) members in
    timed t @@ fun () ->
    let work = Executor.work () in
    let measured =
      match
        Demand_trace.reprice_group ?sampling ~work t.machine kernel ~n:r0.n dt
          ~plans
      with
      | Some rp ->
        if rp.Demand_trace.rp_joint then
          s.repriced_joint <- s.repriced_joint + rp.Demand_trace.rp_estimated;
        rp.Demand_trace.rp_measurements
      | None ->
        Array.map Option.some
          (Demand_trace.measure_plans ?sampling ~work t.machine kernel ~n:r0.n
             dt ~plans)
    in
    add_work t work;
    Array.mapi
      (fun i m ->
        Option.map
          (fun m ->
            protect t ~protocol:t.protocol ~key:(fault_key (snd members.(i)))
              (Clean m))
          m)
      measured

let evaluate_batch t ?log reqs =
  batch_boundary t;
  let reqs = List.map canonical reqs in
  let t0 = Unix_time.now () in
  let fps = List.map (fingerprint t) reqs in
  t.stats.memo_seconds <- t.stats.memo_seconds +. (Unix_time.now () -. t0);
  (* Stage 1: analytically rank every distinct feasible member of the
     batch — memo hits included, ties to the earlier position — and
     keep only the top-k.  Ranking the whole batch makes the skip set a
     pure function of the batch: what a shared memo already holds (an
     earlier request on the daemon, another stage) cannot change which
     members the search sees.  Infeasible candidates bypass the ranking
     — their "evaluation" is pure constraint arithmetic that must still
     record a pruned entry.  Skipped candidates are NOT memoized: a
     later request for the same point simulates it. *)
  let skip = Hashtbl.create 16 in
  (match t.prefilter with
  | None -> ()
  | Some k ->
    let seen = Hashtbl.create 16 in
    let rankable =
      List.filter
        (fun ((r : request), fp) ->
          if Hashtbl.mem seen fp then false
          else begin
            Hashtbl.add seen fp ();
            (not r.check) || Variant.feasible r.variant ~n:r.n r.bindings
          end)
        (List.combine reqs fps)
    in
    if List.length rankable > k then begin
      let scored =
        List.mapi (fun pos (r, fp) -> (model_score t r, pos, fp)) rankable
      in
      let sorted =
        List.sort
          (fun (a, pa, _) (b, pb, _) ->
            match compare a b with 0 -> compare pa pb | c -> c)
          scored
      in
      List.iteri
        (fun i (_, _, fp) -> if i >= k then Hashtbl.replace skip fp ())
        sorted
    end);
  (* Plan: classify each request as pre-filtered, a replayed verdict, a
     memo hit, a duplicate of an earlier miss, or a miss. *)
  let misses = Hashtbl.create 16 in
  let t0 = Unix_time.now () in
  let plan =
    List.map2
      (fun r fp ->
        if Hashtbl.mem skip fp then `Skip
        else if replays_verdict t fp then `Replayed
        else if Hashtbl.mem t.memo fp then `Hit fp
        else if Hashtbl.mem misses fp then `Dup fp
        else begin
          Hashtbl.add misses fp ();
          `Miss (r, fp)
        end)
      reqs fps
  in
  t.stats.memo_seconds <- t.stats.memo_seconds +. (Unix_time.now () -. t0);
  (* The database is consulted only AFTER the pre-filter chose its
     skip set: served candidates are the ones the plan would have
     simulated, so the skip set — and with it the whole search
     trajectory — is identical to the run that populated the
     database, and a fully-populated rerun replays with zero fresh
     simulations.  (A skipped candidate stays skipped even when it is
     on disk, for the same reason.)  A served miss joins no sweep
     group, so groups stay those of the run that filled the store. *)
  let served = Hashtbl.create 16 in
  List.iter
    (function
      | `Miss (_, fp) -> (
        match db_serve t ?log fp with
        | Some ev -> Hashtbl.replace served fp ev
        | None -> ())
      | `Skip | `Replayed | `Hit _ | `Dup _ -> ())
    plan;
  (* Sweep groups: under incremental re-pricing (cycles objective), the
     prefetch misses sharing a demand trace, in request order.  Every
     other miss is measured directly. *)
  let buckets = Hashtbl.create 8 in
  if t.incremental && t.objective = Objective.Cycles then
    List.iter
      (function
        | `Miss (r, fp) when (not (Hashtbl.mem served fp)) && traceable r ->
          let key = trace_key fp in
          let prev = Option.value ~default:[] (Hashtbl.find_opt buckets key) in
          Hashtbl.replace buckets key ((r, fp) :: prev)
        | `Miss _ | `Skip | `Replayed | `Hit _ | `Dup _ -> ())
      plan;
  let group_of = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ rev ->
      if List.compare_length_with rev 1 > 0 then begin
        let members = Array.of_list (List.rev rev) in
        Array.iter (fun (_, fp) -> Hashtbl.replace group_of fp members) members
      end)
    buckets;
  (* One pass in request order: each miss is measured at its own slot
     and committed at once, so memo, telemetry and log end up identical
     to a serial evaluation of the same list.  A sweep group is measured
     at its first member's slot; its later members' results wait in
     [waiting] for their own slots.  A duplicate always follows the
     miss that resolves it, so it lands as a hit, or as another
     re-price when that miss was re-priced. *)
  let waiting = Hashtbl.create 8 in
  let measure r fp =
    match Hashtbl.find_opt waiting fp with
    | Some raw -> raw
    | None -> (
      match Hashtbl.find_opt group_of fp with
      | None -> Some (measure_direct t r fp)
      | Some members ->
        Array.iter2
          (fun (_, fp) raw -> Hashtbl.replace waiting fp raw)
          members (measure_group t members);
        Hashtbl.find waiting fp)
  in
  let pass () =
    List.map
      (function
        | `Skip ->
          note_prefiltered t ?log ();
          None
        | `Replayed ->
          note_repriced t ?log ();
          None
        | `Hit fp -> serve_hit t ?log (Hashtbl.find t.memo fp)
        | `Dup fp -> (
          match Hashtbl.find_opt t.memo fp with
          | Some entry -> serve_hit t ?log entry
          | None -> reprice t ?log fp)
        | `Miss (r, fp) -> (
          match Hashtbl.find_opt served fp with
          | Some ev -> Some ev
          | None -> (
            match measure r fp with
            | Some raw -> commit t ?log r fp raw
            | None -> reprice t ?log fp)))
      plan
  in
  if Hashtbl.length group_of > 0 then holding t pass else pass ()

let program_fingerprint kernel ~n ~mode shape =
  {
    fp_kernel = kernel.Kernels.Kernel.name;
    fp_variant = "#program";
    fp_shape = shape;
    fp_n = n;
    fp_mode = mode;
    fp_bindings = [];
    fp_prefetch = [];
    fp_check = false;
    fp_sampled = false;
  }

let measure_program t ?key kernel ~n ~mode program =
  let shape =
    match key with
    | Some k -> Some ("key:" ^ k)
    | None -> (
      (* Programs are pure data, so a structural digest identifies them;
         if that ever stops holding, fall back to unmemoized execution
         rather than mis-sharing. *)
      match Marshal.to_string program [] with
      | s -> Some ("digest:" ^ Digest.to_hex (Digest.string s))
      | exception _ -> None)
  in
  let run () =
    let work = Executor.work () in
    let m =
      timed t (fun () ->
          Executor.measure ~work t.machine kernel ~n ~mode program)
    in
    add_work t work;
    count_fresh t m;
    after_fresh t;
    m
  in
  match shape with
  | None -> run ()
  | Some shape -> (
    let fp = program_fingerprint kernel ~n ~mode shape in
    match Hashtbl.find_opt t.memo fp with
    | Some (Measured_entry m) ->
      t.stats.hits <- t.stats.hits + 1;
      m
    | Some (Pruned_entry | Failed_entry _) | None ->
      let m = run () in
      Hashtbl.replace t.memo fp (Measured_entry m);
      m)
