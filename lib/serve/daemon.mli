(** The autotuning service: a long-running, crash-only daemon that
    speaks newline-delimited JSON-RPC over stdin/stdout and serves
    tune requests from one shared evaluation engine per measurement
    context — so repeat queries are answered from the in-memory memo
    (and the shared performance database) instead of re-simulating.

    {b Protocol} (one JSON value per line, both directions):

    - [{"id": I, "method": "tune", "params": {"kernel": K, "n": N,
       "machine": M?, "budget": B?, "objective": O?, "prefilter": P?,
       "deadline_s": D?, "cycle_budget": C?}}] — start a session.
      The daemon emits an [accepted] notification, streams [progress]
      notifications while the search runs, and finally answers with
      [{"id": I, "result": {...}}] whose ["status"] is [ok] or a typed
      partial outcome ([timeout], [cancelled], [quarantined],
      [cycle_budget]) carrying the best point found so far — or with
      [{"id": I, "error": {...}}] using the {!Errors} schema.
    - [{"id": I, "method": "cancel", "params": {"session": J}}] —
      cooperatively cancel session [J] (the tune request's id).  The
      running search aborts at its next evaluation, persists a
      resumable checkpoint and releases its slot.
    - [{"id": I, "method": "status"}] — daemon telemetry, including
      ["db"]: [ok], [off] or [degraded].
    - [{"id": I, "method": "shutdown"}] — cancel everything (each
      session persists its checkpoint) and exit.  Closing stdin
      instead drains the outstanding sessions to completion and then
      exits — so [printf '...requests...' | eco serve] works as a
      batch client.

    {b Sessions} are interleaved cooperatively on the coordinating
    domain: each search suspends (via an effect) at every engine batch
    boundary, so [max_live] sessions make progress concurrently while
    sharing one memo, one demand-trace cache and one database handle
    per context.  Admission control queues up to [max_queue] further
    sessions and rejects beyond that with a typed [busy] error
    carrying [retry_after_s].

    {b Crash-only recovery}: each session persists a request file and
    a periodic engine checkpoint under [checkpoint_dir] (named by the
    digest of the session's run tag — the same tag format [eco tune
    --checkpoint] uses).  A daemon killed at any instant leaves both
    consistent; on restart, orphaned request files are replayed
    (resuming from their checkpoints) and announced as [recovered]
    notifications with the identical answer the one-shot CLI path
    produces.  A corrupt shared store degrades the persistence tier
    ([db: degraded] in telemetry) instead of taking the daemon down. *)

type config = {
  machine : Machine.t;  (** default machine for requests that name none *)
  db_file : string option;  (** shared performance database *)
  warm_start : bool;
      (** enable nearest-neighbor transfer seeding (default off in the
          service: warm starts make answers depend on store contents) *)
  checkpoint_dir : string;  (** session request + checkpoint files *)
  checkpoint_every : int;
  max_live : int;  (** sessions interleaved concurrently *)
  max_queue : int;  (** sessions queued beyond that before [busy] *)
  default_deadline_s : float;  (** per-request wall deadline; 0 = none *)
  watchdog_s : float;
      (** a batch taking longer than this counts as a stall; 0 = off *)
  watchdog_retries : int;
      (** stalls tolerated (with backoff) before the session is
          quarantined *)
  watchdog_backoff_s : float;
  progress_every_s : float;  (** progress notification cadence *)
  service_faults : Faults.Service.t;
}

(** Defaults: the [sgi] machine, no database, warm starts
    off, [.eco-serve] checkpoint dir, [checkpoint_every = 16],
    [max_live = 2], [max_queue = 8], no default deadline, watchdog off
    ([watchdog_s = 0.], 2 retries, 0.05s backoff), progress every
    0.25s, no service faults. *)
val default_config : config

(** Run the daemon over [ic]/[oc] (default stdin/stdout) until stdin
    closes or a [shutdown] request arrives; returns the exit code (0).
    Exits the process directly with code 1 when the database is locked
    by another writer, and with code 9 at an injected
    {!Faults.Service.kill_after} instant (simulated SIGKILL: no
    cleanup, no final checkpoint). *)
val run : ?ic:in_channel -> ?oc:out_channel -> config -> int

(** The run tag of a service session — identical in shape to [eco
    tune]'s checkpoint tag, so daemon checkpoints verify against the
    configuration that must reproduce the answer.  Exposed for tests. *)
val session_tag :
  config ->
  kernel:string ->
  n:int ->
  machine:Machine.t ->
  budget:int ->
  objective:Core.Objective.t ->
  prefilter:int option ->
  string
