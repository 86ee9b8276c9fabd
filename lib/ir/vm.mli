(** Bytecode virtual machine: the evaluation fast path.

    {!compile} lowers a program (with all symbolic parameters bound)
    once into a flat int-array bytecode — strides, parameter terms and
    array bases folded into per-reference affine tables, loop bounds
    into small RPN programs — and {!run} executes it in a tight
    dispatch loop.  The closure interpreter in {!Exec} remains the
    reference semantics; the VM is validated against it bit-for-bit
    (see the [vm] test suite) and exists purely to make repeated
    measurement cheap.

    Two compile modes:
    - the default address-only mode allocates no float storage and
      performs no arithmetic: it emits the packed access-event stream
      (encoding of {!Sink.pack}) plus {!Exec.stats}, which is all a
      measurement needs.  Each innermost loop compiles to one leaf-loop
      instruction: its touches' packed events are evaluated once at
      loop entry and advanced by a per-iteration stride, and the
      counters move once per run of iterations; the iteration whose
      flops cross the warm-up or flop budget runs statement by
      statement, so events, cut, marks and stats are those of the
      general loop;
    - [~compute:true] additionally interprets the floating-point
      semantics on a value stack (arrays re-initialized from pristine
      masters on every run), used by the differential tests to compare
      checksums with the interpreter.

    With [~marks:true], the VM records a side buffer of {e iteration
    marks}: one record per innermost-loop iteration, containing the
    mark id, the event-buffer position at iteration start and the
    values of the loop variables used by the body's memory references.
    Marks let the demand-trace cache synthesize prefetch events for
    any candidate distance without re-running the program
    (see [Core.Demand_trace]).

    A compiled program carries its own mutable scratch state (loop
    variables, stacks); a given [t] must not be run from two domains
    at once. *)

(** Growable int buffer, passed into {!run} so callers can pool
    allocations across evaluations. *)
module Buf : sig
  type t

  val create : ?capacity:int -> unit -> t
  val clear : t -> unit
  val length : t -> int
  val push : t -> int -> unit

  (** Current backing store; valid indices are [0 .. length - 1].  The
      array is replaced when the buffer grows, so don't hold on to it
      across pushes. *)
  val data : t -> int array
end

type t

(** [compile ?compute ?marks ?register_budget ~params p] lowers [p].
    Mirrors {!Exec.run}'s placement and spill rules exactly.
    @raise Invalid_argument on invalid programs or unbound parameters. *)
val compile :
  ?compute:bool ->
  ?marks:bool ->
  ?register_budget:int ->
  params:(string * int) list ->
  Program.t ->
  t

(** Per-innermost-loop environment slots recorded in each mark, in
    mark-id order; each entry is sorted ascending.  A mark record is
    [mark_id; event_pos; env.(s) for s in mark_slots.(mark_id)]. *)
val mark_slots : t -> int array array

(** Number of register scalars spilled to memory (as in
    {!Exec.stats.spilled_scalars}). *)
val spilled : t -> int

type run = {
  stats : Exec.stats;
  events : int array;
      (** borrowed from the events buffer — packed {!Sink.pack} values *)
  n_events : int;
  marks : int array;  (** borrowed from the marks buffer *)
  n_marks : int;  (** in words, not records *)
  cut_events : int;
      (** event count when [warm_budget] was first exceeded (the warm-up
          prefix used by sampled measurement); [-1] without a
          [warm_budget] *)
  cut_marks : int;  (** mark-buffer word position at the cut; [-1] likewise *)
}

(** [run ?flop_budget ?warm_budget ?events ?marks t] executes the
    compiled program, with {!Exec.run}'s exact flop-budget semantics
    (graceful stop, [completed = false]).  [events] and [marks] are
    cleared and refilled; fresh buffers are allocated when omitted. *)
val run :
  ?flop_budget:int ->
  ?warm_budget:int ->
  ?events:Buf.t ->
  ?marks:Buf.t ->
  t ->
  run

(** Heap arrays after the latest {!run} (declaration order), for
    checksum comparison with the interpreter.  Empty arrays unless
    compiled with [~compute:true]; contents are overwritten by the next
    [run]. *)
val arrays : t -> (string * float array) list
