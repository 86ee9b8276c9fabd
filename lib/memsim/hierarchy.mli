(** The full memory hierarchy of one machine: TLB + cache levels +
    memory, driven by the address stream of an executing program.

    Timing model: the processor is in-order and blocking on demand
    misses; software prefetches are non-blocking and install lines with a
    future fill time, so a demand access that arrives before the fill
    completes pays only the remaining latency (partial hiding), and one
    that arrives after pays nothing — exactly the trade-off the paper's
    prefetch-distance search explores.  A prefetch that misses in the TLB
    is dropped, as on the R10000.

    The cache and TLB models are defined here, next to the replay
    loops, so the per-event probe inlines into each loop; {!Cache} and
    {!Tlb} re-export them. *)

(** One level of set-associative cache with true-LRU replacement,
    write-back/write-allocate, and per-line fill times used to model
    in-flight software prefetches. *)
module Cache : sig
  type t

  type lookup =
    | Hit of int  (** cycle at which the line's data is ready *)
    | Miss

  val create : Machine.cache -> t

  (** Geometry echoes. *)
  val sets : t -> int

  val line_bytes : t -> int

  (** Line number of a byte address at this level's line size. *)
  val line_of_addr : t -> int -> int

  (** [lookup c ~now ~line] probes for [line]; on a hit the LRU state is
      updated.  Allocates the [Hit] it returns; the replay loops use an
      allocation-free probe instead. *)
  val lookup : t -> now:int -> line:int -> lookup

  (** [insert c ~now ~ready ~dirty ~line] allocates [line], evicting the
      LRU way.  Returns [true] when a dirty line was evicted (write-back
      traffic).  [ready] is the cycle at which the fill completes. *)
  val insert : t -> now:int -> ready:int -> dirty:bool -> line:int -> bool

  (** Mark a resident line dirty (no-op when absent). *)
  val set_dirty : t -> line:int -> unit

  (** [resident c ~line] is true when the line is present (no LRU
      update). *)
  val resident : t -> line:int -> bool

  val reset : t -> unit

  (** Mark every resident line's fill as complete (used when counters
      are rewound between a warm-up pass and a measured pass, so stale
      future fill times cannot charge phantom stalls). *)
  val settle : t -> unit

  (** Number of resident lines (for tests). *)
  val occupancy : t -> int
end

(** Translation lookaside buffer: fully associative with FIFO
    replacement (a good match for the R10000's random-replacement TLB
    at the granularity our experiments observe), with a one-entry MRU
    fast path. *)
module Tlb : sig
  type t

  val create : Machine.tlb -> t
  val page_of_addr : t -> int -> int

  (** [access t ~page] is [true] on a hit; on a miss the page is brought
      in, evicting the oldest entry when full. *)
  val access : t -> page:int -> bool

  (** [probe t ~page] checks residency without installing on a miss
      (used for prefetches, which the R10000 drops on a TLB miss). *)
  val probe : t -> page:int -> bool

  val reset : t -> unit
  val occupancy : t -> int
end

type t

val create : Machine.t -> t
val counters : t -> Counters.t

(** Current cycle estimate: memory issue slots consumed plus demand
    stalls so far. *)
val now : t -> int

val load : t -> int -> unit
val store : t -> int -> unit
val prefetch : t -> int -> unit

(** The {!Sink.t} interface for {!Ir.Exec.run}. *)
val sink : t -> Ir.Sink.t

(** [replay_packed t buf ~pos ~len] simulates the packed events
    ({!Ir.Sink.pack} encoding) in [buf.(pos .. pos+len-1)] in one loop
    that decodes each event, checks the TLB, probes L1 and accounts a
    hit inline, with the hot counters in locals; misses go through one
    allocation-free service of the levels below.  Counter and cache
    state evolution is identical to dispatching the same events through
    {!load}/{!store}/{!prefetch}.  Every replay entry point below
    allocates nothing per event. *)
val replay_packed : t -> int array -> pos:int -> len:int -> unit

(** As {!replay_packed}, but evolving cache/TLB state only — no
    counters, no stall accounting.  Only valid for a warm-up prefix
    that is followed by {!reset_counters} (which discards the counters
    and settles fill times) before anything is measured; residency, LRU
    and dirty state after the prefix are identical to
    {!replay_packed}'s. *)
val warm_packed : t -> int array -> pos:int -> len:int -> unit

(** [replay_one t v] feeds the single packed event [v] through
    {!replay_packed}'s step, keeping the counters in [t]'s record, and
    returns timing feedback for the incremental prefetch re-pricer: for
    a demand event that hits in L1, [now - fill] of the line (>= 0 when
    the line was ready that many cycles early, negative = the stall
    cycles paid); {!no_slack} on a demand miss.  For a prefetch event,
    [0] when the prefetch was issued (installed the line or found it
    resident), {!no_slack} when it was dropped on a TLB miss.  Feeding a
    stream event by event is bit-identical to one {!replay_packed} run
    over it. *)
val replay_one : t -> int -> int

(** The {!replay_one} feedback for a demand miss or a prefetch dropped
    on a TLB miss. *)
val no_slack : int

(** [warm_one t v]: {!warm_packed} of the single event [v]. *)
val warm_one : t -> int -> unit

(** [replay_sampled t sampler buf ~pos ~len] replays only the
    sampler's measured windows with full accounting, re-warms state
    through its warm runs, and skips the rest; the caller scales the
    counters by [Sampling.factor] to estimate the full replay. *)
val replay_sampled : t -> Sampling.sampler -> int array -> pos:int -> len:int -> unit

(** Clear both the counters and all cache/TLB state. *)
val reset : t -> unit

(** Clear the counters but keep cache/TLB contents (fill times are
    settled) — used to discard a warm-up pass. *)
val reset_counters : t -> unit

val cache : t -> int -> Cache.t
