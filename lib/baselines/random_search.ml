type result = {
  bindings : (string * int) list;
  measurement : Core.Executor.measurement;
  evaluated : int;
}

(* Small deterministic LCG so results are reproducible without touching
   the global Random state. *)
let lcg state =
  let state = ((state * 0x5DEECE66D) + 0xB) land 0x3FFFFFFFFFFF in
  (state, state lsr 17)

let tune engine ~n ~mode ~points ~seed variant =
  let params = Core.Variant.params variant in
  let state = ref (seed lxor 0x9E3779B9) in
  let next_int bound =
    let s, v = lcg !state in
    state := s;
    1 + (v mod bound)
  in
  let sample_param (p : Core.Param.t) =
    match p.Core.Param.kind with
    | Core.Param.Unroll -> (p.Core.Param.name, next_int 8)
    | Core.Param.Tile ->
      (* log-uniform in [1, n] *)
      let max_log = int_of_float (Float.log2 (float_of_int (max 2 n))) in
      let magnitude = 1 lsl next_int max_log in
      (p.Core.Param.name, max 1 (min n (next_int magnitude)))
  in
  (* Candidate generation only consumes the RNG — it never looks at a
     measurement — so the whole sample is drawn up front and evaluated
     as one independent batch.  The set of points, and hence the
     winner, is identical to the old sample-then-measure loop. *)
  let rec draw chosen drawn attempts =
    if drawn >= points || attempts >= points * 50 then List.rev chosen
    else
      let bindings = List.map sample_param params in
      if Core.Variant.feasible variant ~n bindings then
        draw (bindings :: chosen) (drawn + 1) (attempts + 1)
      else draw chosen drawn (attempts + 1)
  in
  let candidates = draw [] 0 0 in
  let evaluations =
    Core.Engine.evaluate_batch engine
      (List.map
         (fun bindings -> Core.Engine.request variant ~n ~mode ~bindings)
         candidates)
  in
  let best =
    List.fold_left2
      (fun acc bindings ev ->
        match ev with
        | None -> acc
        | Some (ev : Core.Engine.evaluation) -> (
          let c = Core.Executor.cycles ev.Core.Engine.measurement in
          match acc with
          | Some (_, _, c') when c' <= c -> acc
          | _ -> Some (bindings, ev.Core.Engine.measurement, c)))
      None candidates evaluations
  in
  match best with
  | Some (bindings, measurement, _) ->
    Some { bindings; measurement; evaluated = List.length candidates }
  | None -> None
