type result = {
  outcome : Search.outcome;
  program : Ir.Program.t;
  measurement : Executor.measurement;
  variants : Variant.t list;
  log : Search_log.t;
  engine : Engine.t;
}

type infeasibility =
  | No_model_point
  | Point_pruned
  | Point_failed of Engine.failure_reason
  | Search_found_nothing

exception
  No_feasible_variant of {
    kernel : string;
    n : int;
    per_variant : (string * infeasibility) list;
  }

let describe_infeasibility = function
  | No_model_point -> "the model found no starting point"
  | Point_pruned -> "model-initial point rejected by the constraints"
  | Point_failed reason -> Engine.describe_failure reason
  | Search_found_nothing -> "search measured no feasible point"

(* Stable slugs for the shared CLI/service error schema; [Point_failed]
   composes with [Engine.failure_code] downstream. *)
let infeasibility_code = function
  | No_model_point -> "no_model_point"
  | Point_pruned -> "point_pruned"
  | Point_failed _ -> "point_failed"
  | Search_found_nothing -> "search_found_nothing"

let () =
  Printexc.register_printer (function
    | No_feasible_variant { kernel; n; per_variant } ->
      Some
        (Printf.sprintf "Eco.No_feasible_variant(%s, n=%d):\n%s" kernel n
           (String.concat "\n"
              (List.map
                 (fun (v, why) ->
                   Printf.sprintf "  %s: %s" v (describe_infeasibility why))
                 per_variant)))
    | _ -> None)

let optimize_with ?(mode = Executor.default_budget) ?(max_variants = 4) ?log
    engine kernel ~n =
  let machine = Engine.machine engine in
  (* With the default [Cycles] objective this is exactly
     [Executor.cycles] — triage and winner selection are byte-for-byte
     the historical behaviour. *)
  let score m = Objective.score (Engine.objective engine) machine m in
  let variants = Derive.variants machine kernel in
  (* A caller-supplied log lets graceful-degradation paths (the CLI's
     --timeout, the service's cancel/deadline partial results) report
     the best point found before the search was cut short. *)
  let log = match log with Some l -> l | None -> Search_log.create () in
  let armed = Engine.prefilter engine <> None in
  (* Triage: measure every variant once at its model-initial point and
     fully search only the most promising — the "models limit the search
     to a small number of candidate implementations" part of the
     paper's abstract.  The triage points are independent across
     variants, so they evaluate as one engine batch. *)
  let triaged =
    if armed then []
    else
    let pointed =
      List.filter_map
        (fun v ->
          match Search.model_point machine ~n v with
          | None -> None
          | Some bindings -> Some (v, bindings))
        variants
    in
    let evaluations =
      Engine.evaluate_batch engine ~log
        (List.map
           (fun (v, bindings) ->
             Engine.request v ~n ~mode ~bindings:(List.sort compare bindings))
           pointed)
    in
    let scored =
      List.concat
        (List.map2
           (fun (v, _) ev ->
             match ev with
             | Some ev -> [ (v, score ev.Engine.measurement) ]
             | None -> [])
           pointed evaluations)
    in
    let sorted = List.sort (fun (_, c1) (_, c2) -> compare c1 c2) scored in
    List.filteri (fun i _ -> i < max_variants) (List.map fst sorted)
  in
  let outcomes =
    if armed then
      (* Analytical triage: rank every variant's model-initial point
         with the predictor (zero simulations) and tune the best-ranked
         variant, falling back down the ranking when a search comes up
         empty.  Combined with the armed batch search this is what
         makes the pre-filter's >=3x simulation saving possible: the
         model, not the simulator, narrows both the variant and the
         candidate sets. *)
      let ranked =
        List.map fst
          (List.sort
             (fun (_, s1) (_, s2) -> compare s1 s2)
             (List.filter_map
                (fun v ->
                  match Search.model_point machine ~n v with
                  | None -> None
                  | Some bindings ->
                    let s =
                      match
                        Predict.score_point machine v ~n ~bindings ~prefetch:[]
                      with
                      | s when Float.is_nan s -> infinity
                      | s -> s
                      | exception _ -> infinity
                    in
                    Some (v, s))
                variants))
      in
      let keep = max 1 (max_variants / 4) in
      let rec first k = function
        | [] -> []
        | _ when k = 0 -> []
        | v :: rest -> (
          match Search.tune_variant engine ~n ~mode ~log v with
          | Some o -> o :: first (k - 1) rest
          | None -> first k rest)
      in
      first keep ranked
    else List.filter_map (Search.tune_variant engine ~n ~mode ~log) triaged
  in
  match outcomes with
  | [] ->
    (* Nothing survived.  Diagnose each derived variant from the
       engine's memo: the triage already evaluated every variant's
       model-initial point, so the typed reason is on record. *)
    let per_variant =
      List.map
        (fun v ->
          let why =
            match Search.model_point machine ~n v with
            | None -> No_model_point
            | Some bindings -> (
              match
                Engine.explain engine
                  (Engine.request v ~n ~mode
                     ~bindings:(List.sort compare bindings))
              with
              | `Pruned -> Point_pruned
              | `Failed reason -> Point_failed reason
              | `Measured | `Unknown -> Search_found_nothing)
          in
          (v.Variant.name, why))
        variants
    in
    raise
      (No_feasible_variant
         { kernel = kernel.Kernels.Kernel.name; n; per_variant })
  | o :: rest ->
    let best =
      List.fold_left
        (fun acc o ->
          if score o.Search.measurement < score acc.Search.measurement then o
          else acc)
        o rest
    in
    (* Sampled runs: the adaptive confirmation policy may have deferred
       the per-variant exact polish; the cross-variant winner gets it
       here, once.  Memoized evaluations make this free when the
       per-variant polish already ran. *)
    let best = Search.polish_winner engine ~n ~mode ~log best in
    (* Persist the run's summary for future transfer warm-starts: the
       chosen point plus the log's fresh evaluations as the frontier
       (the database normalizes, dedups and caps it).  Only successful
       measurements appear here — failed and quarantined candidates
       never produced log entries. *)
    (match Engine.db engine with
    | None -> ()
    | Some db ->
      let point_of_entry (e : Search_log.entry) =
        {
          Perfdb.variant = e.Search_log.variant;
          bindings = List.sort compare e.Search_log.bindings;
          prefetch = List.sort compare e.Search_log.prefetch;
          cycles = e.Search_log.cycles;
          mflops = e.Search_log.mflops;
        }
      in
      let best_point =
        {
          Perfdb.variant = best.Search.variant.Variant.name;
          bindings = List.sort compare best.Search.bindings;
          prefetch = List.sort compare best.Search.prefetch;
          cycles = Executor.cycles best.Search.measurement;
          mflops = best.Search.measurement.Executor.mflops;
        }
      in
      match
        Perfdb.add_summary db
          {
            Perfdb.kernel = kernel.Kernels.Kernel.name;
            machine = machine.Machine.name;
            capacity = Perfdb.capacity_vector machine;
            n;
            best = best_point;
            frontier =
              best_point :: List.map point_of_entry (Search_log.entries log);
          }
      with
      | () -> ()
      | exception e ->
        (* an unappendable store degrades persistence; the answer in
           hand is unaffected *)
        Engine.degrade_db engine (Printexc.to_string e));
    (* The one program the run builds: the winner's.  [Engine.build] is
       pure, so it is the program that was measured, and it builds. *)
    let program =
      Option.get
        (Engine.build engine
           (Engine.request best.Search.variant ~n ~mode
              ~bindings:best.Search.bindings ~prefetch:best.Search.prefetch))
    in
    {
      outcome = best;
      program;
      measurement = best.Search.measurement;
      variants;
      log;
      engine;
    }

let optimize ?mode ?max_variants ?jobs ?objective ?prefilter machine kernel ~n =
  optimize_with ?mode ?max_variants
    (Engine.create ?jobs ?objective ?prefilter machine)
    kernel ~n

let remeasure ?(mode = Executor.default_budget) machine result ~n =
  let o = result.outcome in
  (* Reuse the tuning engine (and its memo) when re-measuring on the
     same machine; cross-machine remeasurement gets its own engine. *)
  let engine =
    if
      (Engine.machine result.engine).Machine.name = machine.Machine.name
    then result.engine
    else Engine.create machine
  in
  (* A tuned version keeps its parameters across problem sizes; tiles
     larger than the problem simply cover the whole array. *)
  let tile_params =
    List.filter_map
      (fun (p : Param.t) ->
        match p.Param.kind with
        | Param.Tile -> Some p.Param.name
        | Param.Unroll -> None)
      (Variant.params o.Search.variant)
  in
  let bindings =
    List.map
      (fun (k, v) -> if List.mem k tile_params then (k, min v n) else (k, v))
      o.Search.bindings
  in
  match
    Search.measure_point engine ~n ~mode o.Search.variant ~bindings
      ~prefetch:o.Search.prefetch
  with
  | Some outcome -> Some outcome.Search.measurement
  | None -> None
