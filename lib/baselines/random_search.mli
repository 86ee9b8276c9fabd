(** Unguided random sampling over a variant's parameter space — the
    strawman the paper's related work contrasts with model-guided search
    (AI-search tuners "incorporate little if any domain knowledge").
    Points are sampled uniformly (tiles log-uniformly) and constraint
    checking is the only model knowledge used; the measurement budget is
    capped so it can be compared point-for-point with the guided
    search. *)

type result = {
  bindings : (string * int) list;
  measurement : Core.Executor.measurement;
  evaluated : int;  (** points actually executed *)
}

(** [tune engine ~n ~mode ~points ~seed variant] evaluates at most
    [points] random feasible parameter settings through the engine (one
    batch, memoized) and returns the best (deterministic for a given
    [seed]). *)
val tune :
  Core.Engine.t ->
  n:int ->
  mode:Core.Executor.mode ->
  points:int ->
  seed:int ->
  Core.Variant.t ->
  result option
