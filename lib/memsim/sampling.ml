type t = { shrink : int; window : int; gap : int; warm : int }

let default = { shrink = 8; window = 4096; gap = 28672; warm = 2048 }

let clamp s =
  let shrink = max 1 s.shrink in
  let window = max 1 s.window in
  let gap = max 0 s.gap in
  let warm = min (max 0 s.warm) gap in
  { shrink; window; gap; warm }

let parse str =
  let set acc (k, v) =
    let v =
      match int_of_string_opt v with
      | Some v -> v
      | None ->
        invalid_arg (Printf.sprintf "sampling spec: %s=%s is not an integer" k v)
    in
    match k with
    | "shrink" -> { acc with shrink = v }
    | "window" -> { acc with window = v }
    | "gap" -> { acc with gap = v }
    | "warm" -> { acc with warm = v }
    | _ -> invalid_arg (Printf.sprintf "sampling spec: unknown key %s" k)
  in
  let field acc part =
    match String.index_opt part '=' with
    | Some i ->
      set acc
        ( String.trim (String.sub part 0 i),
          String.trim (String.sub part (i + 1) (String.length part - i - 1)) )
    | None -> invalid_arg (Printf.sprintf "sampling spec: bad field %S" part)
  in
  let parts =
    List.filter (fun s -> String.trim s <> "") (String.split_on_char ',' str)
  in
  clamp (List.fold_left field default parts)

let to_string s =
  Printf.sprintf "shrink=%d,window=%d,gap=%d,warm=%d" s.shrink s.window s.gap
    s.warm

(* How much of a sampled replay's cold warm-up prefix is actually
   replayed state-only: the trailing [window + gap] events.  Mid-stream,
   every measured window trusts at most one period of history ([gap]
   skipped events re-warmed by the last [warm]); granting the first
   window a full period of true state-only history makes its starting
   state at least as representative as any later window's, so replaying
   the prefix beyond one period buys nothing the estimator relies on.
   Short prefixes (at most one period) are unaffected — they replay in
   full, so small-budget estimates are bit-identical to the uncapped
   behaviour. *)
let prefix_cap s =
  let s = clamp s in
  s.window + s.gap

type action = Measure | Warm | Drop

type sampler = {
  spec : t;
  mutable phase : action;
  mutable left : int;
  mutable n_fed : int;
  mutable n_measured : int;
  mutable n_warmed : int;
}

let sampler spec =
  let spec = clamp spec in
  {
    spec;
    phase = Measure;
    left = spec.window;
    n_fed = 0;
    n_measured = 0;
    n_warmed = 0;
  }

(* Advance to the next phase once the current one is exhausted.  With
   [gap = 0] the cursor never leaves Measure (full replay). *)
let refill s =
  match s.phase with
  | Measure ->
    if s.spec.gap = 0 then s.left <- s.spec.window
    else begin
      let drop = s.spec.gap - s.spec.warm in
      if drop > 0 then begin
        s.phase <- Drop;
        s.left <- drop
      end
      else begin
        s.phase <- Warm;
        s.left <- s.spec.warm
      end
    end
  | Drop ->
    if s.spec.warm > 0 then begin
      s.phase <- Warm;
      s.left <- s.spec.warm
    end
    else begin
      s.phase <- Measure;
      s.left <- s.spec.window
    end
  | Warm ->
    s.phase <- Measure;
    s.left <- s.spec.window

(* [take] runs once per replayed run and per prefetch event of a
   sampled walk, so it allocates nothing: the run's action is read back
   with [action], and run lengths are compared as ints, not with the
   polymorphic [min]. *)
let take s n =
  if n <= 0 then invalid_arg "Sampling.take: n must be positive";
  if s.left = 0 then refill s;
  let k = if n < s.left then n else s.left in
  s.left <- s.left - k;
  s.n_fed <- s.n_fed + k;
  (match s.phase with
  | Measure -> s.n_measured <- s.n_measured + k
  | Warm -> s.n_warmed <- s.n_warmed + k
  | Drop -> ());
  k

let action s = s.phase
let fed s = s.n_fed
let measured s = s.n_measured
let replayed s = s.n_measured + s.n_warmed

let factor s =
  if s.n_measured = 0 then 1.0 else float_of_int s.n_fed /. float_of_int s.n_measured
