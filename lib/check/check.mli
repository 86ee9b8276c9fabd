(** Property-based differential testing of the transformation system
    against the reference interpreter (the correctness backstop behind
    every Table 1–4 number): seeded random parameter bindings over the
    phase-1 variants plus random transformation pipelines, an
    ULP-tolerant oracle comparing each instantiated program's output
    arrays against the untransformed kernel, and greedy shrinking of any
    failure to a minimal, reproducible (kernel, case, size) triple.

    Reports are a pure function of [(seed, trials, kernels, machine)] —
    identical at any [jobs] — so a failing seed from CI replays exactly
    on a laptop. *)

module Rng : module type of Rng
module Oracle : module type of Oracle
module Pipe : module type of Pipe
module Gen : module type of Gen
module Shrink : module type of Shrink

(** One checkable case: a parameter binding of a derived variant
    (optionally with a prefetch layer), or an explicit transformation
    pipeline. *)
type case =
  | Point of {
      variant : Core.Variant.t;
      bindings : (string * int) list;
      prefetch : (string * int) list;
      n : int;
    }
  | Pipeline of { pipe : Pipe.t; n : int }

type failure = {
  kernel : string;
  case : case;  (** already shrunk *)
  verdict : Oracle.verdict;  (** of the shrunk case *)
  repro : string;  (** an [eco check] command replaying the case *)
}

type kernel_report = {
  kernel : string;
  trials : int;
  checked : int;  (** trials that ran the oracle *)
  skipped : int;  (** trials with no feasible sampled point *)
  failures : failure list;
}

type report = {
  seed : int;
  trials : int;  (** per kernel *)
  machine : string;
  max_ulps : int;
  kernels : kernel_report list;
}

(** Instantiate a variant at explicit bindings (plus prefetches, at the
    machine's L1 line granularity) and compare against the reference.
    Instantiation errors become [Crash]. *)
val check_point :
  ?max_ulps:int ->
  machine:Machine.t ->
  Core.Variant.t ->
  bindings:(string * int) list ->
  prefetch:(string * int) list ->
  n:int ->
  Oracle.verdict

(** Apply an explicit pipeline and compare against the reference.
    Construction errors become [Crash]. *)
val check_pipe :
  ?max_ulps:int -> Kernels.Kernel.t -> pipe:Pipe.t -> n:int -> Oracle.verdict

(** Re-run a (possibly shrunk) case. *)
val run_case :
  ?max_ulps:int -> machine:Machine.t -> Kernels.Kernel.t -> case -> Oracle.verdict

(** The harness: [trials] seeded trials per kernel, each drawing either
    a random feasible point of a random derived variant or a random
    transformation pipeline, checking it, and shrinking any failure.
    [jobs > 1] spreads trials over that many domains, and values below 1
    run them serially; the report is identical at any value. *)
val run :
  ?machine:Machine.t ->
  ?jobs:int ->
  ?max_ulps:int ->
  seed:int ->
  trials:int ->
  Kernels.Kernel.t list ->
  report

val ok : report -> bool
val failures : report -> failure list
val pp_report : Format.formatter -> report -> unit
val report_to_string : report -> string

(** [eco check] command line replaying a case. *)
val repro_line : machine:Machine.t -> kernel:string -> case -> string

(** Differentially validate a tuned outcome (the [tune --validate]
    backstop): re-check the variant at its winning bindings and prefetch
    against the reference at up to two sizes derived from [n] but capped
    for tractability (full interpretation is O(n^3) for matmul) — the
    cap and a nearby non-dividing size exercise the same transformation
    structure. *)
val validate :
  ?max_ulps:int ->
  machine:Machine.t ->
  Core.Variant.t ->
  bindings:(string * int) list ->
  prefetch:(string * int) list ->
  n:int ->
  (int * Oracle.verdict) list

(** Parse ["ui=4,tj=8"]-style binding lists (the [--point] /
    [--prefetch] syntax).  @raise Invalid_argument on syntax errors. *)
val parse_bindings : string -> (string * int) list

val bindings_to_string : (string * int) list -> string

(** Look up a derived variant by name ([--variant]). *)
val find_variant :
  machine:Machine.t -> Kernels.Kernel.t -> string -> Core.Variant.t option
