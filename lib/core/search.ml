type outcome = {
  variant : Variant.t;
  bindings : (string * int) list;
  prefetch : (string * int) list;
  measurement : Executor.measurement;
}

type state = {
  engine : Engine.t;
  n : int;
  mode : Executor.mode;
  log : Search_log.t option;
  variant : Variant.t;
  mutable best : outcome option;
  (* Leading candidates by objective score (ascending), kept under an
     active noisy fault plan (for the post-search confirmation pass)
     and under sampled simulation (for the exact top-k re-measurement
     that chooses the final winner). *)
  mutable top : (outcome * float) list;
}

let leaderboard_size = 5

let take k xs = List.filteri (fun i _ -> i < k) xs

(* Keep the first occurrence of each element, in order. *)
let uniq xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

let line_elems st = Machine.line_elems (Engine.machine st.engine) 0
let unroll_params st = List.map snd st.variant.Variant.unrolls
let tile_params st = List.map snd st.variant.Variant.tiles
let all_params st = unroll_params st @ tile_params st

(* The paper's linear-refinement step: 1 for an unroll factor,
   max(1, cache line) for a tile. *)
let delta st p = if List.mem p (unroll_params st) then 1 else max 1 (line_elems st)

(* Objective value of a measurement under the engine's objective; with
   the default [Cycles] this is exactly [Executor.cycles]. *)
let score st m = Objective.score (Engine.objective st.engine) (Engine.machine st.engine) m

(* The one comparison every selection uses: a later candidate displaces
   the incumbent only when strictly better, so ties keep the earliest. *)
let better c c' = c < c'

(* Fold one scored point into an earliest-best selection. *)
let pick acc point c =
  match acc with Some (_, c') when not (better c c') -> acc | _ -> Some (point, c)

let request st ~bindings ~prefetch =
  Engine.request st.variant ~n:st.n ~mode:st.mode ~bindings ~prefetch

(* Fold an engine result into the running best.  Memo hits participate
   too: the first evaluation of a point may have happened in another
   search (triage, another stage) that shares the engine. *)
let consider st ~bindings ~prefetch (ev : Engine.evaluation) =
  let c = score st ev.Engine.measurement in
  let outcome () =
    {
      variant = st.variant;
      bindings;
      prefetch;
      measurement = ev.Engine.measurement;
    }
  in
  (match st.best with
  | Some b when not (better c (score st b.measurement)) -> ()
  | _ -> st.best <- Some (outcome ()));
  if Engine.confirming st.engine || Engine.sampling st.engine <> None then
    if
      not
        (List.exists
           (fun (o, _) -> o.bindings = bindings && o.prefetch = prefetch)
           st.top)
    then
      st.top <-
        take leaderboard_size
          (List.sort (fun (_, a) (_, b) -> compare a b) ((outcome (), c) :: st.top));
  c

(* Evaluate one point through the engine (memoized there).  Returns
   simulated cycles, or [None] when infeasible. *)
let evaluate st ~bindings ~prefetch =
  let bindings = List.sort compare bindings in
  let prefetch = List.sort compare prefetch in
  match Engine.evaluate st.engine ?log:st.log (request st ~bindings ~prefetch) with
  | Some ev -> Some (consider st ~bindings ~prefetch ev)
  | None -> None

(* --- the moves ----------------------------------------------------------

   Every driver below is built from two ways of measuring a list of
   (bindings, prefetch) points, both folding into the earliest best on
   top of [init]:

   - [sweep]: an independent neighbourhood as ONE engine batch —
     ranked as a whole by the pre-filter, and, under the incremental
     re-pricer, its prefetch siblings of one point priced together as
     a sweep group.  The members' order is part of the answer: the
     pre-filter breaks score ties by position and results commit in
     request order.
   - [anchors]: single evaluations in order.  A one-point batch is not
     the same thing: it also runs the engine's batch-boundary hook (the
     daemon's scheduling point), and the pre-filter never skips a lone
     evaluation, which is what makes an anchor a forced measurement. *)

let sweep ?init st points =
  let points =
    List.map (fun (b, p) -> (List.sort compare b, List.sort compare p)) points
  in
  let evs =
    Engine.evaluate_batch st.engine ?log:st.log
      (List.map (fun (bindings, prefetch) -> request st ~bindings ~prefetch) points)
  in
  List.fold_left2
    (fun acc ((bindings, prefetch) as point) ev ->
      match ev with
      | None -> acc
      | Some ev -> pick acc point (consider st ~bindings ~prefetch ev))
    init points evs

let anchors ?init st points =
  List.fold_left
    (fun acc ((bindings, prefetch) as point) ->
      match evaluate st ~bindings ~prefetch with
      | Some c -> pick acc point c
      | None -> acc)
    init points

let set_params bindings updates =
  List.map
    (fun (k, v) -> match List.assoc_opt k updates with Some v' -> (k, v') | None -> (k, v))
    bindings

(* Every parameter of [ps] set to [m]. *)
let uniform_at bindings ps m = set_params bindings (List.map (fun p -> (p, m)) ps)

(* Largest uniform value for the stage parameters that stays feasible
   (the model's initial point: the footprint heuristic saturates the
   capacity constraints).  Pure constraint arithmetic — no simulation,
   so it does not go through the engine. *)
let uniform variant ~n stage bindings =
  let feasible_at m = Variant.feasible variant ~n (uniform_at bindings stage m) in
  let rec grow m = if m * 2 <= 4096 && feasible_at (m * 2) then grow (m * 2) else m in
  let rec refine lo hi =
    (* invariant: feasible_at lo, not feasible_at (hi+1) conceptually *)
    if hi - lo <= 1 then if feasible_at hi then hi else lo
    else
      let mid = (lo + hi) / 2 in
      if feasible_at mid then refine mid hi else refine lo mid
  in
  if not (feasible_at 1) then None
  else
    let m = grow 1 in
    (* try to push between m and 2m *)
    Some (if feasible_at (m * 2) then m * 2 else refine m (m * 2))

let initial_uniform st = uniform st.variant ~n:st.n

let halve v = max 1 (v / 2)

(* Move to the best improving neighbour while one improves, at most
   [rounds] times (unbounded by default); each round's neighbourhood is
   one [sweep]. *)
let rec descend ?(rounds = max_int) st ~prefetch neighbours bindings current =
  if rounds <= 0 then (bindings, current)
  else
    match sweep st (List.map (fun b -> (b, prefetch)) (neighbours bindings)) with
    | Some ((b, _), c) when better c current ->
      descend ~rounds:(rounds - 1) st ~prefetch neighbours b c
    | _ -> (bindings, current)

(* Shape walk: try doubling p while halving q, for all ordered pairs. *)
let shape_walk st stage =
  descend st (fun bindings ->
      List.concat_map
        (fun p ->
          List.filter_map
            (fun q ->
              if p = q then None
              else
                let bp = List.assoc p bindings and bq = List.assoc q bindings in
                if bq <= 1 then None
                else Some (set_params bindings [ (p, bp * 2); (q, halve bq) ]))
            stage)
        stage)

(* Linear refinement: nudge each parameter by +-delta. *)
let linear_refine ?rounds st stage =
  descend ?rounds st (fun bindings ->
      List.concat_map
        (fun p ->
          let v = List.assoc p bindings in
          let d = delta st p in
          List.filter_map
            (fun v' ->
              if v' >= 1 && v' <> v then Some (set_params bindings [ (p, v') ])
              else None)
            [ v + d; v - d ])
        stage)

let stage_search st stage ~prefetch bindings =
  if stage = [] then
    Option.map (fun c -> (bindings, c)) (evaluate st ~bindings ~prefetch)
  else
    match initial_uniform st stage bindings with
    | None -> None
    | Some m0 ->
      (* The model-initial footprint is feasible by construction, so a
         [None] from its evaluation is a measurement failure (timeout,
         quarantine, malformed program).  Retreat to smaller uniform
         footprints instead of abandoning the whole variant — on a
         healthy engine the first candidate measures and this is
         exactly the old behavior. *)
      let rec first_measurable m =
        let start = uniform_at bindings stage m in
        match evaluate st ~bindings:start ~prefetch with
        | Some c -> Some (start, c)
        | None when m > 1 -> first_measurable (halve m)
        | None -> None
      in
      (match first_measurable m0 with
      | None -> None
      | Some (start, c0) ->
        (* Alternate shape walks and footprint halvings while improving. *)
        let rec outer bindings current =
          let bindings, current = shape_walk st stage ~prefetch bindings current in
          let halved =
            set_params bindings
              (List.map (fun p -> (p, halve (List.assoc p bindings))) stage)
          in
          if halved = bindings then (bindings, current)
          else
            match evaluate st ~bindings:halved ~prefetch with
            | Some c when better c current ->
              let b', c' = shape_walk st stage ~prefetch halved c in
              outer b' c'
            | _ -> (bindings, current)
        in
        let bindings, current = outer start c0 in
        Some (linear_refine st stage ~prefetch bindings current))

(* "To simplify the code generated, tiling parameter values that are
   multiples of any tile size or unroll factor previously selected are
   favored" (§3.2): snap each tile to a nearby multiple of its loop's
   unroll factor or of the cache line, keeping the snap if performance
   does not degrade beyond a whisker.  Each acceptance feeds the next
   candidate, so this stays serial. *)
let snap_multiples st ~prefetch bindings current =
  let tolerance = 1.0 in
  List.fold_left
    (fun (bindings, current) (loop, tparam) ->
      let v = List.assoc tparam bindings in
      let bases =
        (match List.assoc_opt loop st.variant.Variant.unrolls with
        | Some uparam -> [ List.assoc uparam bindings ]
        | None -> [])
        @ [ line_elems st ]
      in
      List.fold_left
        (fun (bindings, current) base ->
          if base <= 1 || v mod base = 0 then (bindings, current)
          else
            let candidates = [ v / base * base; ((v / base) + 1) * base ] in
            List.fold_left
              (fun (bindings, current) v' ->
                if v' < 1 then (bindings, current)
                else
                  let cand = set_params bindings [ (tparam, v') ] in
                  match evaluate st ~bindings:cand ~prefetch with
                  | Some c when c <= current *. tolerance -> (cand, c)
                  | _ -> (bindings, current))
              (bindings, current) candidates)
        (bindings, current) bases)
    (bindings, current) st.variant.Variant.tiles

(* --- prefetch search --- *)

(* The prefetchable arrays (copy temporaries included) of a point's
   program; [None] when the program cannot be built. *)
let prefetch_arrays st ~bindings =
  Option.map Transform.Prefetch_insert.candidates
    (Engine.build st.engine (request st ~bindings ~prefetch:[]))

(* The staged search's prefetch pass: per array, a doubling descent
   over distances 1..32 on top of the arrays committed so far.  Each
   step is one evaluation whose result the next step reads, so the pass
   measures nothing it does not decide on and forms no sweep group. *)
let prefetch_search st ~bindings current_cycles =
  match prefetch_arrays st ~bindings with
  | None -> ([], current_cycles)
  | Some arrays ->
    List.fold_left
      (fun (chosen, best_c) array ->
        let try_distance d = evaluate st ~bindings ~prefetch:((array, d) :: chosen) in
        match try_distance 1 with
        | Some c1 when better c1 best_c ->
          (* Grow the distance while it improves; keep the smallest best. *)
          let rec grow d best_d best_c =
            let d' = d * 2 in
            if d' > 32 then (best_d, best_c)
            else
              match try_distance d' with
              | Some c when better c best_c -> grow d' d' c
              | _ -> (best_d, best_c)
          in
          let d, c = grow 1 1 c1 in
          ((array, d) :: chosen, c)
        | _ -> (chosen, best_c))
      ([], current_cycles)
      arrays

(* --- post-prefetch adjustment: grow the innermost tile --- *)

let adjust st ~prefetch bindings current =
  match List.rev st.variant.Variant.tiles with
  | [] -> ()
  | (_, param) :: _ ->
    let rec grow bindings current =
      let cand = set_params bindings [ (param, List.assoc param bindings * 2) ] in
      match evaluate st ~bindings:cand ~prefetch with
      | Some c when better c current -> grow cand c
      | _ -> ()
    in
    grow bindings current

(* --- model-guided (armed) tuning --------------------------------------

   Used when the engine's analytical pre-filter is active.  The serial
   descent above adapts one simulation at a time, so a pre-filter can
   skip almost nothing; this path instead proposes each stage's whole
   candidate neighbourhood as ONE wide batch and lets the engine rank
   it analytically and simulate only the top k — a stage costs k
   simulations instead of a descent.  The unfiltered path is untouched
   and bit-identical to the historical search. *)

let cross lists =
  List.fold_right
    (fun (p, vs) tails ->
      List.concat_map (fun tail -> List.map (fun v -> (p, v) :: tail) vs) tails)
    lists [ [] ]

(* Deterministically thin a candidate list to at most [k] entries. *)
let cap k xs =
  let len = List.length xs in
  if len <= k then xs
  else
    let stride = (len + k - 1) / k in
    List.filteri (fun i _ -> i mod stride = 0) xs

(* One stage as a single wide batch: the engine's pre-filter decides
   which of these actually simulate. *)
let stage_grid st stage ~prefetch ~values bindings =
  if stage = [] then anchors st [ (bindings, prefetch) ]
  else
    let updates = cross (List.map (fun p -> (p, values p)) stage) in
    sweep st (List.map (fun u -> (set_params bindings u, prefetch)) (cap 512 updates))

let unroll_grid_values _ = [ 1; 2; 3; 4; 5; 6; 8 ]

(* Tile values: the model-initial uniform footprint and fractions of
   it, plus powers of two — the refinement pass nudges from there. *)
let tile_grid_values st m0 _ =
  let around = [ m0; m0 * 3 / 4; m0 * 2 / 3; m0 / 2; m0 / 4 ] in
  let rec pows v acc = if v > st.n then acc else pows (v * 2) (v :: acc) in
  List.sort_uniq compare (List.filter (fun v -> v >= 1) (around @ pows 8 []))

(* A prefetch-plan sweep at fixed bindings.  Prefetch candidates get
   simulated exhaustively: the analytical model ranks loop
   restructurings well but barely distinguishes prefetch distances, so
   the plans are swept in chunks no larger than the pre-filter's top-k
   — a batch that fits within k is never skipped.  Prefetch sweeps are
   small (arrays x distances), so this stays cheap. *)
let prefetch_sweep st ~bindings prefs =
  let k =
    match Engine.prefilter st.engine with
    | Some k -> max 1 k
    | None -> max 1 (List.length prefs)
  in
  let rec chunks = function
    | [] -> []
    | prefs -> take k prefs :: chunks (List.filteri (fun i _ -> i >= k) prefs)
  in
  List.fold_left
    (fun acc prefs -> sweep ?init:acc st (List.map (fun p -> (bindings, p)) prefs))
    None (chunks prefs)

let armed_distances = [ 2; 4; 8; 16 ]

let prefetch_search_armed st ~bindings current =
  match prefetch_arrays st ~bindings with
  | None -> ([], current)
  | Some arrays ->
    (* Fixed-order greedy: visit each prefetchable array once, try the
       distance grid on top of what's committed so far, and keep the
       best improving extension.  One pass costs |arrays| x |distances|
       simulations — the committed set usually ends up covering every
       array anyway, so the free-order greedy's extra rounds buy
       little. *)
    List.fold_left
      (fun (chosen, best_c) a ->
        let prefs = List.map (fun d -> (a, d) :: chosen) armed_distances in
        match prefetch_sweep st ~bindings prefs with
        | Some ((_, p), c) when better c best_c -> (p, c)
        | _ -> (chosen, best_c))
      ([], current) arrays

(* Coordinate descent over an existing prefetch plan: for each
   prefetchable array in turn, try the distance grid — and dropping the
   array — with the rest of the committed plan held fixed.  The greedy
   [prefetch_search_armed] grows a plan from empty, so when the
   incumbent single-array plan already beats every single-array
   candidate it commits nothing and joint plans (main array and its
   copy temporary prefetched together) stay unreachable; the refinement
   reaches them from whatever plan the caller confirmed.  Two passes at
   most: the second only runs when the first improved, to let an early
   array's distance adapt to a later array's insertion. *)
let prefetch_refine st ~bindings start current =
  match prefetch_arrays st ~bindings with
  | None -> (start, current)
  | Some arrays ->
    let pass state =
      List.fold_left
        (fun (chosen, best_c) a ->
          let rest = List.filter (fun (a', _) -> a' <> a) chosen in
          let prefs = rest :: List.map (fun d -> (a, d) :: rest) armed_distances in
          match prefetch_sweep st ~bindings prefs with
          | Some ((_, p), c) when better c best_c -> (p, c)
          | _ -> (chosen, best_c))
        state arrays
    in
    let r1 = pass (start, current) in
    if better (snd r1) current then pass r1 else r1

let tune_armed st =
  let unrolls = unroll_params st and tiles = tile_params st in
  let start = List.map (fun p -> (p, 1)) (all_params st) in
  let m0 = match initial_uniform st tiles start with Some m -> m | None -> 1 in
  let start = if tiles = [] then start else uniform_at start tiles m0 in
  let u0 = match initial_uniform st unrolls start with Some m -> m | None -> 1 in
  (* Each stage's grid is followed by forced anchors (the pre-filter
     never skips a lone evaluation): the model's ranking is only
     trusted within a batch, so the capacity-filling uniform points the
     constraints recommend always get measured even when the model's
     top-k looks elsewhere. *)
  let stage1 =
    let best =
      stage_grid st unrolls ~prefetch:[] ~values:unroll_grid_values start
    in
    (* anchors: the constraints' own starting point — maximal uniform
       unrolls at the model-initial tiles — plus its single-parameter
       bumps in both directions, which cover the near-square register
       blocks (u0+-1) the register-pressure constraint actually
       favours; infeasible bumps prune for free *)
    let base = uniform_at start unrolls u0 in
    anchors ?init:best st
      (List.map
         (fun b -> (b, []))
         (base
         :: List.concat_map
              (fun p ->
                set_params base [ (p, u0 + 1) ]
                :: (if u0 > 1 then [ set_params base [ (p, u0 - 1) ] ] else []))
              unrolls))
  in
  match stage1 with
  | None -> None
  | Some ((b1, _), _) -> (
    let stage2 =
      let best =
        stage_grid st tiles ~prefetch:[] ~values:(tile_grid_values st m0) b1
      in
      (* anchors: uniform capacity-filling footprints with stage-1's
         unrolls *)
      anchors ?init:best st
        (List.filter_map
           (fun m ->
             if m >= 1 && tiles <> [] then Some (uniform_at b1 tiles m, [])
             else None)
           [ m0; m0 * 9 / 10; m0 * 3 / 4 ])
    in
    match stage2 with
    | None -> None
    | Some ((b2, _), c2) ->
      let b2, c2 = linear_refine ~rounds:2 st (all_params st) ~prefetch:[] b2 c2 in
      let prefetch, c3 = prefetch_search_armed st ~bindings:b2 c2 in
      (* Short refinement with prefetch in place: prefetch shifts the
         latency/issue balance, which can move the best tile/unroll
         point by a notch. *)
      let b3, c4 = linear_refine ~rounds:1 st (all_params st) ~prefetch b2 c3 in
      adjust st ~prefetch b3 c4;
      st.best)

(* The earliest minimum of confirmed (outcome, score) pairs; the
   running best when nothing could be confirmed. *)
let confirmed_best st = function
  | [] -> st.best
  | hd :: tl ->
    Some
      (fst
         (List.fold_left (fun a b -> if better (snd b) (snd a) then b else a) hd tl))

(* The post-search confirmation pass: under a noisy fault plan the
   minimum over all measured values is biased low (winner's curse), so
   the leading candidates are re-measured with fresh, longer trials and
   the winner is chosen on confirmed values.  Each successful
   re-measurement counts as one confirmation, as in {!confirm_exact}.
   A no-op on a clean engine. *)
let confirm_noisy st =
  if not (Engine.confirming st.engine) then st.best
  else
    let trials = 2 * (Engine.protocol st.engine).Engine.trials in
    confirmed_best st
      (List.filter_map
         (fun (o, _) ->
           match
             Engine.confirm st.engine
               (request st ~bindings:o.bindings ~prefetch:o.prefetch)
               ~trials
           with
           | Some m ->
             Engine.note_confirmed st.engine ?log:st.log ();
             Some ({ o with measurement = m }, score st m)
           | None -> None)
         st.top)

(* How many leaderboard entries a sampled search must re-measure
   exactly.  The fixed top-5 confirmation pays five exact replays per
   variant even when the sampled estimator has never once mis-ranked a
   leaderboard on this kernel; the adaptive policy spends that budget
   only while the estimator is unproven.  Evidence is the engine's
   per-kernel (pairs, inversions) record, accumulated by every
   confirmation pass (including other variants of the same tune run and
   checkpoint-resumed history): with fewer than [min_rank_pairs] judged
   pairs the full leaderboard is confirmed; once the observed inversion
   rate is <= 2% one confirmation suffices, <= 15% keeps a safety
   second, anything worse falls back to the full leaderboard.  The
   quota is read once per pass, so an inversion raises the quota of
   later passes on the kernel, not of the pass that found it.  The
   floor of one is never crossed — the reported [performance:] is
   always an exact measurement — and [--confirm] overrides the policy
   with a fixed size. *)
let min_rank_pairs = 4

let confirm_quota st =
  match Engine.confirm_override st.engine with
  | Some k -> max 1 k
  | None ->
    let kernel = st.variant.Variant.kernel.Kernels.Kernel.name in
    let pairs, inversions = Engine.rank_quality st.engine ~kernel in
    if pairs < min_rank_pairs then leaderboard_size
    else
      let rate = float_of_int inversions /. float_of_int pairs in
      if rate <= 0.02 then 1 else if rate <= 0.15 then 2 else leaderboard_size

(* A runner-up beating the front-runner within the sampled-search
   degradation budget (2%) is harmless — either choice is an
   acceptable winner — so only a win beyond this margin can classify a
   judged pair as an inversion. *)
let rank_pair_rtol = 0.02

let record_rank_evidence st confirmed =
  let kernel = st.variant.Variant.kernel.Kernels.Kernel.name in
  let entries = Array.of_list confirmed in
  let pairs = ref 0 and inversions = ref 0 in
  let n = Array.length entries in
  (* Judge only the pairs a shrunken quota would actually act on: the
     estimate front-runner (index 0 — the leaderboard is confirmed in
     ascending estimate order) against each runner-up.  An inversion
     deep in the leaderboard (rank 4 vs 5) never changes what quota 1
     commits, so it is not evidence against shrinking.  Each judged
     pair asks: would committing to the front-runner have lost this
     runner-up?  Three ways the answer is no — the runner-up is within
     the degradation budget (either choice is an acceptable winner),
     the exact scores agree with the estimate order, or the runner-up
     wins with the front-runner's own bindings (quota 1 commits the
     {e bindings}; the prefetch plan is re-derived from scratch at
     exact precision by the winner polish's coordinate descent, so a
     same-bindings runner-up is reachable anyway).  Only a runner-up
     that wins clearly with {e different} bindings is an inversion:
     something the shrunken confirm set would genuinely lose.  A pass
     that confirms one entry judges no pair at all. *)
  for j = 1 to n - 1 do
    let o0, a = entries.(0) and oj, b = entries.(j) in
    incr pairs;
    if
      a > b
      && Float.abs (a -. b) > rank_pair_rtol *. Float.min a b
      && List.sort compare o0.bindings <> List.sort compare oj.bindings
    then incr inversions
  done;
  Engine.record_rank_sample st.engine ~kernel ~pairs:!pairs
    ~inversions:!inversions

(* Exact top-k confirmation of a sampled search: the leaderboard was
   ranked on sampled estimates, so the leading [quota] candidates are
   re-measured with full (unsampled) replays — memoized as exact
   entries under their exact fingerprints — and the winner is chosen
   on exact values.  The estimates only steered the search.  Each pass
   also scores the estimator: every clearly separated exact pair that
   came back in (or out of) estimate order feeds the engine's
   rank-quality record, which is what earns future passes a smaller
   quota. *)
let confirm_exact st ~quota =
  List.iteri
    (fun i _ ->
      if i >= quota then Engine.note_confirm_skipped st.engine)
    st.top;
  let confirmed =
    List.filter_map
      (fun (o, _) ->
        match
          Engine.evaluate st.engine ?log:st.log
            (request st ~bindings:o.bindings ~prefetch:o.prefetch)
        with
        | Some ev ->
          Engine.note_confirmed st.engine ?log:st.log ();
          Some
            ( { o with measurement = ev.Engine.measurement },
              score st ev.Engine.measurement )
        | None -> None)
      (take quota st.top)
  in
  record_rank_evidence st confirmed;
  confirmed_best st confirmed

let confirm_best st =
  match Engine.sampling st.engine with
  | None -> confirm_noisy st
  | Some _ as saved ->
    Fun.protect
      ~finally:(fun () -> Engine.set_sampling st.engine saved)
      (fun () ->
        Engine.set_sampling st.engine None;
        let quota = confirm_quota st in
        st.best <- confirm_exact st ~quota;
        (* The exact polish — the costly part of the tail, a few dozen
           full-precision simulations — is deferred to the single
           cross-variant winner ({!polish_winner}): the search pays one
           polish per run rather than one per variant, and per-variant
           confirmation only has to pick the right variant, which the
           confirmed exact scores already do. *)
        confirm_noisy st)

(* Final exact polish of the cross-variant winner of a sampled run:
   sampled estimates rank the broad landscape reliably but blur the
   last notch of tile/unroll size and prefetch distance, which is where
   the <=2% degradation budget goes.  Everything runs at exact
   precision, and [consider] folds every evaluation into [st.best], so
   the polish can only improve the answer: one capped refinement round,
   then two complementary prefetch passes — coordinate descent from the
   confirmed incumbent (reaches joint plans the greedy can't), and,
   only when it stalls, the grow-from-empty greedy, which escapes
   coupled local minima the descent can't (an incumbent with a bad near
   distance on every array blocks any single-array move) — and one more
   round with the plan in place. *)
let polish_winner engine ~n ~mode ?log (o : outcome) =
  match Engine.sampling engine with
  | None -> o
  | Some _ as saved ->
    Fun.protect
      ~finally:(fun () -> Engine.set_sampling engine saved)
      (fun () ->
        Engine.set_sampling engine None;
        let st =
          { engine; n; mode; log; variant = o.variant; best = Some o; top = [] }
        in
        let stage = all_params st in
        let c0 = score st o.measurement in
        let b1, c1 =
          linear_refine ~rounds:1 st stage ~prefetch:o.prefetch o.bindings c0
        in
        let prefetch, c2 = prefetch_refine st ~bindings:b1 o.prefetch c1 in
        let prefetch, c2 =
          if better c2 c1 then (prefetch, c2)
          else
            match prefetch_search_armed st ~bindings:b1 c2 with
            | p, c when better c c2 && p <> [] -> (p, c)
            | _ -> (prefetch, c2)
        in
        ignore (linear_refine ~rounds:1 st stage ~prefetch b1 c2);
        Option.value st.best ~default:o)

let model_point _machine ~n variant =
  (* Pure constraint arithmetic — no engine, no simulation. *)
  let uniform = uniform variant ~n in
  let unroll_params = List.map snd variant.Variant.unrolls in
  let tile_params = List.map snd variant.Variant.tiles in
  let start = List.map (fun p -> (p, 1)) (unroll_params @ tile_params) in
  match uniform tile_params start with
  | None -> None
  | Some mt ->
    let with_tiles =
      if tile_params = [] then start else uniform_at start tile_params mt
    in
    (match uniform unroll_params with_tiles with
    | None -> None
    | Some mu ->
      if unroll_params = [] then Some with_tiles
      else Some (uniform_at with_tiles unroll_params mu))

(* --- transfer warm-start ----------------------------------------------

   With a performance database attached (and warm-starting enabled),
   a new search first asks it for the nearest recorded summary — same
   kernel, closest machine capacity vector, then closest problem size —
   and transfers its frontier: each recorded point is rescaled through
   this variant's own constraints ([Derive.rescale_point]) and
   force-simulated as an anchor, exactly like the classical anchors of
   the armed path.  The search then runs a short refinement around the
   transferred optimum instead of a full staged descent.  With no
   database, no matching summary, or nothing transferable, [warm_tune]
   evaluates NOTHING and returns [None] — the search falls through to
   the historical paths byte-identically. *)

let max_transfer_anchors = 3

(* Seeds transferred from the nearest database summary, together with
   the donor's (machine, size) distance — the adaptive refinement
   budget below is keyed to it. *)
let warm_seeds st =
  match Engine.warm_db st.engine with
  | None -> ([], None)
  | Some db -> (
    let machine = Engine.machine st.engine in
    let capacity = Perfdb.capacity_vector machine in
    let kernel = st.variant.Variant.kernel.Kernels.Kernel.name in
    match Perfdb.nearest db ~kernel ~capacity ~n:st.n with
    | None -> ([], None)
    | Some s ->
      let seeds =
        List.filter_map
          (fun (p : Perfdb.point) ->
            (* only same-variant points transfer: parameters are named
               per variant, and cross-variant points would rescale into
               meaningless bindings *)
            if not (String.equal p.Perfdb.variant st.variant.Variant.name)
            then None
            else
              match
                Derive.rescale_point st.variant ~n:st.n p.Perfdb.bindings
              with
              | None -> None
              | Some bindings ->
                let prefetch =
                  List.map
                    (fun (a, d) -> (a, max 1 (min 64 d)))
                    p.Perfdb.prefetch
                in
                Some (bindings, prefetch))
          s.Perfdb.frontier
      in
      ( take max_transfer_anchors (uniq seeds),
        Some (Perfdb.distance ~capacity ~n:st.n s) ))

let warm_tune st =
  match warm_seeds st with
  | [], _ -> None
  | seeds, donor -> (
    (* Adaptive warm-refinement budget: how much local search a
       transfer earns depends on how far the donor is.  A same-machine,
       near-size donor transfers near-optimal points, so the short
       classical refinement suffices; a cross-machine donor (any
       nonzero capacity distance) or a donor more than 2x away in size
       only lands the search in the right basin — double the refinement
       rounds and widen the prefetch-distance retune grid. *)
    let far =
      match donor with
      | None -> false
      | Some (machine_dist, size_dist) -> machine_dist > 0.0 || size_dist >= 1.0
    in
    let rounds_pre = if far then 4 else 2 in
    let rounds_post = if far then 2 else 1 in
    let distance_scales = if far then [ 1; 2; 3; 4; 6; 8 ] else [ 1; 2; 4; 8 ] in
    let best =
      List.fold_left
        (fun acc seed ->
          Engine.note_warm_start st.engine;
          anchors ?init:acc st [ seed ])
        None seeds
    in
    (* Classical guard anchor: the constraints' capacity-filling point,
       so a transfer from a poorly-matched donor can never drag the
       search below what the model alone recommends.  It borrows the
       best seed's transferred prefetch plan so the comparison is
       apples-to-apples — with an empty plan the guard would lose to
       any prefetched seed even when its bindings are better. *)
    let best =
      match model_point (Engine.machine st.engine) ~n:st.n st.variant with
      | None -> best
      | Some b ->
        let pf = match best with Some ((_, pf), _) -> pf | None -> [] in
        anchors ?init:best st [ (b, pf) ]
    in
    match best with
    | None -> None
    | Some ((b0, pf0), c0) ->
      let tiles = tile_params st in
      (* Capacity re-saturation anchor: the donor's tiles were sized for
         the donor's problem, so when the target size changes, also try
         re-saturating the capacity constraints with the transferred
         unrolls (and prefetch plan) in place.  This is what lets a
         warm start track the growing optimum instead of being pinned
         to the donor's footprint. *)
      let b0, c0 =
        match initial_uniform st tiles b0 with
        | Some m0 when tiles <> [] ->
          let cand = uniform_at b0 tiles m0 in
          if cand = b0 then (b0, c0)
          else (
            match evaluate st ~bindings:cand ~prefetch:pf0 with
            | Some c when better c c0 -> (cand, c)
            | _ -> (b0, c0))
        | _ -> (b0, c0)
      in
      let b1, c1 =
        linear_refine ~rounds:rounds_pre st (all_params st) ~prefetch:pf0 b0 c0
      in
      let pf, c2 =
        match pf0 with
        | [] ->
          (* nothing transferred: build a plan from scratch, exactly as
             the armed path does *)
          prefetch_search_armed st ~bindings:b1 c1
        | _ -> (
          (* The transferred plan already names the right arrays — the
             donor search chose them on a neighboring size — so only the
             distances need retuning.  A uniform rescale sweep costs a
             handful of simulations instead of the full
             |arrays| x |distances| greedy rebuild. *)
          let scaled s =
            List.sort compare
              (List.map (fun (a, d) -> (a, max 1 (min 64 (d * s / 2)))) pf0)
          in
          match
            prefetch_sweep st ~bindings:b1 (uniq (List.map scaled distance_scales))
          with
          | Some ((_, p), c) when better c c1 -> (p, c)
          | _ -> (pf0, c1))
      in
      (* keep the transferred plan when the retune does not beat it *)
      let pf, c2 = if better c2 c1 then (pf, c2) else (pf0, c1) in
      let b2, c3 =
        linear_refine ~rounds:rounds_post st (all_params st) ~prefetch:pf b1 c2
      in
      adjust st ~prefetch:pf b2 c3;
      st.best)

(* The paper's staged search (§3.2): unroll factors, then cache tiles,
   each a shape walk / footprint halving / linear refinement from the
   model's initial point; snapping tiles to multiples; the prefetch
   pass; and the final adjustment. *)
let tune_staged st =
  let tiles = tile_params st in
  let start = List.map (fun p -> (p, 1)) (all_params st) in
  (* Give the cache tiles their model-initial (uniform, capacity-filling)
     values before searching the register tiles, so stage 1 does not run
     against degenerate size-1 tiles. *)
  let start =
    match initial_uniform st tiles start with
    | Some m when tiles <> [] -> uniform_at start tiles m
    | _ -> start
  in
  (* Stage 1: unroll factors. *)
  match stage_search st (unroll_params st) ~prefetch:[] start with
  | None -> None
  | Some (b1, _) -> (
    (* Stage 2: tile sizes, carrying the unrolls over. *)
    match stage_search st tiles ~prefetch:[] b1 with
    | None -> None
    | Some (b2, c2) ->
      let b2, c2 = snap_multiples st ~prefetch:[] b2 c2 in
      let prefetch, c3 = prefetch_search st ~bindings:b2 c2 in
      adjust st ~prefetch b2 c3;
      confirm_best st)

let tune_variant engine ~n ~mode ~log variant =
  let st =
    { engine; n; mode; log = Some log; variant; best = None; top = [] }
  in
  match warm_tune st with
  | Some _ -> confirm_best st
  | None ->
    if Engine.prefilter engine = None then tune_staged st
    else (match tune_armed st with None -> None | Some _ -> confirm_best st)

let measure_point engine ~n ~mode ?log variant ~bindings ~prefetch =
  let st = { engine; n; mode; log; variant; best = None; top = [] } in
  match evaluate st ~bindings ~prefetch with
  | Some _ -> st.best
  | None -> None
