(** An ATLAS-style pure-empirical tuner for Matrix Multiply, the paper's
    [ATLAS] comparator.

    Fixed code shape (the classic ATLAS gemm): square NB×NB cache
    blocking of all three loops, a register kernel of [mu]×[nu]
    unroll-and-jam with K innermost, and — for problems above the copy
    threshold — A- and B-tiles copied into contiguous buffers (ATLAS
    skips the copy for small problems, the cause of its small-size
    fluctuation in the paper's Figure 4).

    Unlike ECO there are {e no models}: the tuner sweeps an exhaustive
    grid of (NB, mu, nu) and keeps the empirically best, which is why it
    needs several times more search points (paper §4.3).  The grid is
    fully independent, so it evaluates as one engine batch, memo-shared
    with any other strategy on the same engine. *)

type config = {
  nb : int;
  mu : int;
  nu : int;
  copy : bool;
}

(** The parameter grid swept (exposed for the search-cost experiment). *)
val grid : Machine.t -> config list

(** Build the gemm program for a configuration.  [copy] must only be set
    when the problem is large enough for full tiles (n >= nb). *)
val program : Kernels.Kernel.t -> config -> Ir.Program.t

(** [copy_threshold] — ATLAS copies only when [n] is at least this
    multiple of NB. *)
val copy_threshold : int

type result = {
  config : config;
  measurement : Core.Executor.measurement;
  points : int;  (** grid points evaluated *)
  seconds : float;  (** wall-clock time spent searching *)
}

(** Run the full empirical sweep at size [n] and return the winner. *)
val tune : Core.Engine.t -> n:int -> mode:Core.Executor.mode -> result

(** Re-measure a tuned configuration at another size, applying the
    size-dependent copy decision. *)
val measure_at :
  Core.Engine.t -> config -> n:int -> mode:Core.Executor.mode -> Core.Executor.measurement
