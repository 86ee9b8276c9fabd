(** §4.3 — "Cost of Search": points evaluated and wall-clock seconds for
    the ECO search on each kernel/machine, against the ATLAS-style
    exhaustive sweep for Matrix Multiply.  The paper reports 60/44
    ECO points for MM (8/6 min) and 94/148 for Jacobi, with the ATLAS
    search 2–4x slower; the reproduction's claim is the same ordering:
    ECO needs several times fewer points and less time than the
    un-guided search. *)

type entry = {
  what : string;
  machine : string;
  points : int;
  seconds : float;  (** wall-clock search time *)
  best_mflops : float;
}

val run : ?mode:Core.Executor.mode -> unit -> entry list
val render : entry list -> string list
