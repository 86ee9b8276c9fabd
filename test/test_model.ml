(* Tests for the analytical model tier: Model/Predict sanity, the
   Objective abstraction, the engine's analytical pre-filter, and the
   Cost.scale rounding regression. *)

let machine = Machine.sgi_r10000

let mm_variants = lazy (Core.Derive.variants machine Kernels.Matmul.kernel)

let first_variant () = List.hd (Lazy.force mm_variants)

(* --- Cost.scale --- *)

let test_scale_rounds_flops () =
  (* Regression: scaling used to truncate the flop count, so
     extrapolating a sampled run lost flops (0.7 * 5 = 3.5 -> 3).
     Rounding recovers the nearest integer. *)
  let c =
    Memsim.Cost.of_components machine ~mem_issue:10.0 ~fp_issue:10.0
      ~other_issue:1.0 ~stall:5.0 ~flops:5
  in
  let scaled = Memsim.Cost.scale 0.7 c in
  Alcotest.(check int) "rounded, not truncated" 4 scaled.Memsim.Cost.flops;
  let c6 =
    Memsim.Cost.of_components machine ~mem_issue:10.0 ~fp_issue:10.0
      ~other_issue:1.0 ~stall:5.0 ~flops:6
  in
  let back = Memsim.Cost.scale 2.0 (Memsim.Cost.scale 0.5 c6) in
  Alcotest.(check int) "halve then double" 6 back.Memsim.Cost.flops

(* --- Model via Predict --- *)

let point v ~ti =
  List.map
    (fun (p : Core.Param.t) ->
      match p.Core.Param.kind with
      | Core.Param.Tile -> (p.Core.Param.name, ti)
      | Core.Param.Unroll -> (p.Core.Param.name, 2))
    (Core.Variant.params v)

let test_prediction_finite () =
  let v = first_variant () in
  let n = 96 in
  let prepared = Core.Predict.prepare v ~n in
  List.iter
    (fun ti ->
      let pred =
        Core.Predict.predict machine prepared ~bindings:(point v ~ti)
          ~prefetch:[]
      in
      let cycles = Model.cycles pred in
      Alcotest.(check bool)
        (Printf.sprintf "finite positive cycles at ti=%d" ti)
        true
        (Float.is_finite cycles && cycles > 0.0);
      Array.iter
        (fun m ->
          Alcotest.(check bool) "non-negative misses" true (m >= 0.0))
        pred.Model.level_misses;
      Alcotest.(check int) "one entry per cache level"
        (Machine.levels machine)
        (Array.length pred.Model.level_misses))
    [ 4; 16; 32 ]

let test_tiling_reduces_predicted_misses () =
  (* The whole point of the model: a capacity-respecting tile predicts
     fewer L1 misses than an untiled (tile = n) execution. *)
  let v = first_variant () in
  let n = 96 in
  let prepared = Core.Predict.prepare v ~n in
  let l1 ti =
    (Core.Predict.predict machine prepared ~bindings:(point v ~ti)
       ~prefetch:[])
      .Model.level_misses.(0)
  in
  Alcotest.(check bool) "tiled < untiled" true (l1 24 < l1 96)

let test_score_matches_objective () =
  let v = first_variant () in
  let n = 64 in
  let bindings = point v ~ti:16 in
  let s_cycles =
    Core.Predict.score_point ~objective:Core.Objective.Cycles machine v ~n
      ~bindings ~prefetch:[]
  in
  let s_energy =
    Core.Predict.score_point ~objective:Core.Objective.Energy machine v ~n
      ~bindings ~prefetch:[]
  in
  Alcotest.(check bool) "cycles score positive" true (s_cycles > 0.0);
  Alcotest.(check bool) "energy score positive" true (s_energy > 0.0);
  Alcotest.(check bool) "objectives differ" true (s_cycles <> s_energy)

let test_three_level_prediction () =
  (* On the 3-level machine the model must produce per-level traffic
     for L1, L2 and L3. *)
  let m3 = Machine.modern_3level in
  let vs = Core.Derive.variants m3 Kernels.Matmul.kernel in
  let v = List.hd vs in
  let pred =
    Core.Predict.predict m3 (Core.Predict.prepare v ~n:64)
      ~bindings:(point v ~ti:16) ~prefetch:[]
  in
  Alcotest.(check int) "three levels" 3
    (Array.length pred.Model.level_misses);
  Alcotest.(check bool) "finite" true
    (Float.is_finite (Model.cycles pred))

(* --- Objective on measurements --- *)

let test_objective_cycles_is_executor_cycles () =
  let v = first_variant () in
  let n = 48 in
  let engine = Core.Engine.create machine in
  match
    Core.Engine.evaluate engine
      (Core.Engine.request v ~n ~mode:(Core.Executor.Budget 200_000)
         ~bindings:(List.sort compare (point v ~ti:16)))
  with
  | None -> Alcotest.fail "evaluation failed"
  | Some ev ->
    let m = ev.Core.Engine.measurement in
    Alcotest.(check (float 1e-9))
      "Cycles objective = simulated cycles" (Core.Executor.cycles m)
      (Core.Objective.score Core.Objective.Cycles machine m);
    Alcotest.(check bool)
      "Energy objective positive" true
      (Core.Objective.score Core.Objective.Energy machine m > 0.0)

(* --- derivation on the 3-level machine --- *)

let find_constraint (v : Core.Variant.t) name =
  List.find_opt
    (fun c ->
      match c with
      | Core.Constr.Poly_le { what; _ } -> what = name
      | _ -> false)
    v.Core.Variant.constraints

let test_modern_3level_derives_l3 () =
  let m3 = Machine.modern_3level in
  let vs = Core.Derive.variants m3 Kernels.Matmul.kernel in
  Alcotest.(check bool) "variants exist" true (List.length vs > 0);
  (* Some variant must carry an L3 tiling note: derivation walks every
     cache level, not just two. *)
  let has_l3 =
    List.exists
      (fun (v : Core.Variant.t) ->
        List.exists
          (fun (note : Core.Variant.level_note) -> note.Core.Variant.level = "L3")
          v.Core.Variant.notes)
      vs
  in
  Alcotest.(check bool) "L3 note present" true has_l3;
  (* Capacity bounds follow (assoc-1)/assoc * size/elem. *)
  let v = List.hd vs in
  (match find_constraint v "L1 capacity" with
  | Some (Core.Constr.Poly_le { bound; _ }) ->
    Alcotest.(check int) "L1 eff. capacity" 3584 bound
  | _ -> Alcotest.fail "missing L1 constraint");
  (match find_constraint v "L2 capacity" with
  | Some (Core.Constr.Poly_le { bound; _ }) ->
    Alcotest.(check int) "L2 eff. capacity" 28672 bound
  | _ -> Alcotest.fail "missing L2 constraint");
  match find_constraint v "L3 capacity" with
  | Some (Core.Constr.Poly_le { bound; _ }) ->
    Alcotest.(check int) "L3 eff. capacity" 983040 bound
  | _ -> Alcotest.fail "missing L3 constraint"

(* --- machine aliases --- *)

let test_machine_aliases () =
  List.iter
    (fun (alias, expected) ->
      match Machine.by_name alias with
      | Some m ->
        Alcotest.(check string) alias expected.Machine.name m.Machine.name
      | None -> Alcotest.fail (alias ^ " not resolved"))
    [
      ("modern", Machine.modern_3level);
      ("3level", Machine.modern_3level);
      ("mini", Machine.sgi_r10000_mini);
    ]

(* --- the analytical pre-filter --- *)

let small_machine = Machine.sgi_r10000_mini

let test_prefilter_reduces_simulations () =
  let kernel = Kernels.Matmul.kernel in
  let n = 48 in
  let off = Core.Eco.optimize small_machine kernel ~n in
  let on =
    Core.Eco.optimize ~prefilter:Core.Engine.default_prefilter small_machine
      kernel ~n
  in
  let fresh r = (Core.Engine.stats r.Core.Eco.engine).Core.Engine.fresh in
  let stats_on = Core.Engine.stats on.Core.Eco.engine in
  Alcotest.(check bool)
    (Printf.sprintf "fewer simulations (%d < %d)" (fresh on) (fresh off))
    true
    (fresh on < fresh off);
  Alcotest.(check bool) "skips recorded" true (stats_on.Core.Engine.prefiltered > 0);
  Alcotest.(check bool) "model evals recorded" true
    (stats_on.Core.Engine.model_evals > 0);
  (* The filtered search must still land within a reasonable band of the
     unfiltered answer. *)
  let mf r = r.Core.Eco.measurement.Core.Executor.mflops in
  Alcotest.(check bool)
    (Printf.sprintf "quality within 20%% (%.1f vs %.1f)" (mf on) (mf off))
    true
    (mf on >= 0.8 *. mf off)

let test_prefilter_off_identical () =
  (* prefilter:None is the exact historical search: same chosen point,
     same measurement, same evaluation count as the default engine. *)
  let kernel = Kernels.Matmul.kernel in
  let n = 40 in
  let a = Core.Eco.optimize small_machine kernel ~n in
  let b = Core.Eco.optimize ?prefilter:None small_machine kernel ~n in
  Alcotest.(check string) "same variant"
    a.Core.Eco.outcome.Core.Search.variant.Core.Variant.name
    b.Core.Eco.outcome.Core.Search.variant.Core.Variant.name;
  Alcotest.(check bool) "same bindings" true
    (a.Core.Eco.outcome.Core.Search.bindings
    = b.Core.Eco.outcome.Core.Search.bindings);
  Alcotest.(check (float 1e-9)) "same cycles"
    (Core.Executor.cycles a.Core.Eco.measurement)
    (Core.Executor.cycles b.Core.Eco.measurement);
  Alcotest.(check int) "same simulation count"
    (Core.Engine.stats a.Core.Eco.engine).Core.Engine.fresh
    (Core.Engine.stats b.Core.Eco.engine).Core.Engine.fresh

let test_engine_search_smoke_3level () =
  (* The engine + armed search run end to end on the 3-level machine. *)
  let r =
    Core.Eco.optimize ~prefilter:Core.Engine.default_prefilter
      Machine.modern_3level Kernels.Matmul.kernel ~n:48
  in
  Alcotest.(check bool) "positive mflops" true
    (r.Core.Eco.measurement.Core.Executor.mflops > 0.0)

let suite =
  [
    Alcotest.test_case "scale rounds flops" `Quick test_scale_rounds_flops;
    Alcotest.test_case "prediction finite" `Quick test_prediction_finite;
    Alcotest.test_case "tiling reduces predicted misses" `Quick
      test_tiling_reduces_predicted_misses;
    Alcotest.test_case "score matches objective" `Quick
      test_score_matches_objective;
    Alcotest.test_case "three-level prediction" `Quick
      test_three_level_prediction;
    Alcotest.test_case "objective cycles = executor cycles" `Quick
      test_objective_cycles_is_executor_cycles;
    Alcotest.test_case "modern_3level derives L3" `Quick
      test_modern_3level_derives_l3;
    Alcotest.test_case "machine aliases" `Quick test_machine_aliases;
    Alcotest.test_case "prefilter reduces simulations" `Quick
      test_prefilter_reduces_simulations;
    Alcotest.test_case "prefilter off identical" `Quick
      test_prefilter_off_identical;
    Alcotest.test_case "engine search smoke on 3-level" `Quick
      test_engine_search_smoke_3level;
  ]
