(* Benchmark harness.

   Two parts:
   1. Bechamel micro-benchmarks, one per paper artifact, timing a
      representative unit of the machinery that regenerates it (a
      simulated Table-1 row, a phase-1 derivation, one sweep point of
      each figure, one guided-search run, ...).
   2. The full reproduction: prints every table and figure series the
      paper reports (same output as `eco experiment`).

   Environment knobs (see Experiments.Config): ECO_BUDGET,
   ECO_TABLE1_BUDGET, ECO_FAST. *)

open Bechamel
open Toolkit

let quick_mode = Core.Executor.Budget 50_000

let bench_table1_row () =
  (* One mm row of Table 1 at a reduced budget. *)
  ignore
    (Experiments.Table1.rows ~mode:quick_mode ())

let bench_table2 () = ignore (Experiments.Table2.render ())

let bench_table4 () =
  ignore (Core.Derive.variants Machine.sgi_r10000 Kernels.Matmul.kernel)

(* Fresh engine per iteration: these benchmarks time the measurement
   itself, not a memo-table lookup. *)
let bench_fig4_point () =
  ignore
    (Baselines.Vendor_blas.measure
       (Core.Engine.create Machine.sgi_r10000)
       ~n:128 ~mode:quick_mode)

let bench_fig5_point () =
  ignore
    (Baselines.Native_compiler.measure
       (Core.Engine.create Machine.sgi_r10000)
       Kernels.Jacobi3d.kernel ~n:64 ~mode:quick_mode)

let bench_search_cost () =
  (* One full guided search on the small machine. *)
  ignore
    (Core.Eco.optimize ~mode:quick_mode ~max_variants:1 Machine.generic_small
       Kernels.Matmul.kernel ~n:48)

let bench_ablation_unit () =
  ignore
    (Baselines.Model_only.optimize
       (Core.Engine.create Machine.generic_small)
       Kernels.Matmul.kernel ~n:48 ~mode:quick_mode)

let bench_padding_unit () =
  ignore
    (Experiments.Padding.run ~mode:quick_mode ~sizes:[ 40 ] ~tune_n:40
       Machine.generic_small)

let bench_strategies_unit () =
  ignore
    (Baselines.Random_search.tune
       (Core.Engine.create Machine.generic_small)
       ~n:48 ~mode:quick_mode ~points:3 ~seed:1
       (List.hd (Core.Derive.variants Machine.generic_small Kernels.Matmul.kernel)))

let bench_conflicts_unit () =
  ignore
    (Memsim.Classify.of_program Machine.generic_small ~level:0
       ~params:[ ("n", 32) ]
       Kernels.Matmul.kernel.Kernels.Kernel.program)

let bench_cache_throughput =
  let h = Memsim.Hierarchy.create Machine.sgi_r10000 in
  fun () ->
    for i = 0 to 9_999 do
      Memsim.Hierarchy.load h ((i * 64) land 0xFFFFF)
    done

let bench_trace_replay =
  let t =
    Memsim.Trace.of_program ~params:[ ("n", 24) ]
      Kernels.Matmul.kernel.Kernels.Kernel.program
  in
  fun () ->
    ignore
      (Memsim.Trace.misses_under t
         (Machine.cache_level Machine.sgi_r10000 0))

let tests =
  Test.make_grouped ~name:"eco" ~fmt:"%s/%s"
    [
      Test.make ~name:"table1_rows" (Staged.stage bench_table1_row);
      Test.make ~name:"table2_render" (Staged.stage bench_table2);
      Test.make ~name:"table4_derive" (Staged.stage bench_table4);
      Test.make ~name:"fig4_sweep_point" (Staged.stage bench_fig4_point);
      Test.make ~name:"fig5_sweep_point" (Staged.stage bench_fig5_point);
      Test.make ~name:"search_cost_tune" (Staged.stage bench_search_cost);
      Test.make ~name:"ablation_model_only" (Staged.stage bench_ablation_unit);
      Test.make ~name:"padding_unit" (Staged.stage bench_padding_unit);
      Test.make ~name:"strategies_random_unit" (Staged.stage bench_strategies_unit);
      Test.make ~name:"conflicts_classify_unit" (Staged.stage bench_conflicts_unit);
      Test.make ~name:"memsim_10k_loads" (Staged.stage bench_cache_throughput);
      Test.make ~name:"trace_replay_sweep" (Staged.stage bench_trace_replay);
    ]

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:20 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.printf "%-28s %16s@." "benchmark" "ns/run";
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some [ e ] -> Printf.sprintf "%16.0f" e
        | _ -> Printf.sprintf "%16s" "-"
      in
      Format.printf "%-28s %s@." name estimate)
    results

(* Machine-readable search-cost summary, for tracking the numbers across
   commits without scraping the rendered tables. *)
let emit_search_json entries =
  let json_escape s =
    String.concat ""
      (List.map
         (function
           | '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
         (List.init (String.length s) (String.get s)))
  in
  let entry (e : Experiments.Search_cost.entry) =
    Printf.sprintf
      "  {\"what\": \"%s\", \"machine\": \"%s\", \"points\": %d, \
       \"wall_seconds\": %.4f, \"best_mflops\": %.2f}"
      (json_escape e.Experiments.Search_cost.what)
      (json_escape e.Experiments.Search_cost.machine)
      e.Experiments.Search_cost.points e.Experiments.Search_cost.seconds
      e.Experiments.Search_cost.best_mflops
  in
  let oc = open_out "BENCH_search.json" in
  output_string oc
    ("[\n" ^ String.concat ",\n" (List.map entry entries) ^ "\n]\n");
  close_out oc;
  Format.printf "@.wrote BENCH_search.json (%d entries)@."
    (List.length entries)

(* Evaluation-path benchmark: the per-candidate rate of the engine's
   direct measurement ([Executor.measure]: bytecode VM plus packed
   replay) against the exact reference ([Executor.measure_reference]:
   the closure interpreter through the per-access sink), both timed
   over the same programs.  Both measure bit-identical values (the
   [vm] test suite enforces it), so the ratio of the two timings is
   exactly the direct path's speedup.  Emits BENCH_eval.json for
   tracking across commits. *)

let eval_bench_cases =
  [
    (Kernels.Matmul.kernel, 128);
    (Kernels.Jacobi3d.kernel, 64);
    (Kernels.Matvec.kernel, 256);
    (Kernels.Stencil2d.kernel, 128);
    (Kernels.Wavefront.kernel, 128);
  ]

let eval_bench_mode = Core.Executor.Budget 200_000

(* The candidate set is the fresh points of one default guided search,
   rebuilt with [Engine.build]: [Executor.measure] over them gives the
   [fast_*] rows, [Executor.measure_reference] the [closures_*] rows.
   Returns the search's stats, wall time and winner MFLOPS, then the
   candidate count and the two timings. *)
let eval_bench_run kernel ~n =
  let machine = Machine.sgi_r10000 in
  let mode = eval_bench_mode in
  let engine = Core.Engine.create machine in
  let t0 = Unix.gettimeofday () in
  let r = Core.Eco.optimize_with ~mode engine kernel ~n in
  let wall = Unix.gettimeofday () -. t0 in
  let variant name =
    List.find (fun (v : Core.Variant.t) -> v.Core.Variant.name = name)
      r.Core.Eco.variants
  in
  let programs =
    List.filter_map
      (fun (e : Core.Search_log.entry) ->
        Core.Engine.build engine
          (Core.Engine.request
             (variant e.Core.Search_log.variant)
             ~n ~mode ~bindings:e.Core.Search_log.bindings
             ~prefetch:e.Core.Search_log.prefetch))
      (Core.Search_log.entries r.Core.Eco.log)
  in
  let time measure =
    let t0 = Unix.gettimeofday () in
    List.iter (fun p -> ignore (measure p)) programs;
    Unix.gettimeofday () -. t0
  in
  let fast_s = time (Core.Executor.measure machine kernel ~n ~mode) in
  let reference_s =
    time (Core.Executor.measure_reference machine kernel ~n ~mode)
  in
  ( Core.Engine.stats engine,
    wall,
    r.Core.Eco.measurement.Core.Executor.mflops,
    List.length programs,
    fast_s,
    reference_s )

(* The replay tier: default sampled simulation + incremental prefetch
   re-pricing, i.e. the [--sample --incremental] search.  Delivered
   throughput counts re-priced candidates alongside fresh simulations:
   both produce a scored candidate the search acts on. *)
let eval_bench_replay kernel ~n =
  let engine = Core.Engine.create Machine.sgi_r10000 in
  Core.Engine.set_sampling engine (Some Memsim.Sampling.default);
  Core.Engine.set_incremental engine true;
  let t0 = Unix.gettimeofday () in
  let r = Core.Eco.optimize_with ~mode:eval_bench_mode engine kernel ~n in
  let wall = Unix.gettimeofday () -. t0 in
  (Core.Engine.stats engine, wall, r.Core.Eco.measurement.Core.Executor.mflops)

(* K-plan prefetch-sweep microbenchmark over ONE captured demand trace:
   what a phase-2 distance sweep costs per candidate.  The unbatched
   path synthesizes and fully replays each plan's event stream; the
   replay tier prices the whole group from one slack-recording base
   replay plus one exact confirmation ([Demand_trace.reprice_group]).
   This isolates the evaluator's speedup from the end-to-end search
   numbers above, which are floored by the exact confirm/polish tail. *)
let sweep_microbench (kernel : Kernels.Kernel.t) ~n =
  let machine = Machine.sgi_r10000 in
  let v = List.hd (Core.Derive.variants machine kernel) in
  let bindings =
    match Core.Search.model_point machine ~n v with Some b -> b | None -> []
  in
  let program = Core.Variant.instantiate v ~bindings in
  let dt =
    Core.Demand_trace.capture machine kernel ~n ~mode:eval_bench_mode program
  in
  let arr =
    (List.hd (Ir.Program.heap_arrays (Core.Demand_trace.program dt)))
      .Ir.Decl.name
  in
  let k = 24 in
  let plans = Array.init k (fun i -> [ (arr, 1 + i) ]) in
  let rounds = 3 in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to rounds do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int rounds
  in
  let unbatched () =
    Array.iter
      (fun plan ->
        let buf = Ir.Vm.Buf.create ~capacity:(1 lsl 16) () in
        let cut = Core.Demand_trace.synthesize dt ~plan ~into:buf in
        ignore
          (Core.Executor.measure_from_trace machine kernel ~n
             ~stats:(Core.Demand_trace.stats dt)
             ~events:(Ir.Vm.Buf.data buf)
             ~n_events:(Ir.Vm.Buf.length buf) ~cut))
      plans
  in
  let replay ?sampling () =
    match
      Core.Demand_trace.reprice_group ?sampling machine kernel ~n dt ~plans
    with
    | Some _ -> ()
    | None ->
      ignore (Core.Demand_trace.measure_plans ?sampling machine kernel ~n dt ~plans)
  in
  let t_unbatched = time unbatched in
  let t_replay = time (fun () -> replay ()) in
  let t_replay_sampled =
    time (fun () -> replay ~sampling:Memsim.Sampling.default ())
  in
  let per_sec t = if t > 0.0 then float_of_int k /. t else 0.0 in
  (k, per_sec t_unbatched, per_sec t_replay, per_sec t_replay_sampled)

let emit_eval_json () =
  let entries =
    List.map
      (fun ((kernel : Kernels.Kernel.t), n) ->
        let name = kernel.Kernels.Kernel.name in
        Format.printf "eval bench: %s n=%d...@." name n;
        let fast, fast_wall, fast_mflops, evals, fast_s, reference_s =
          eval_bench_run kernel ~n
        in
        let replay, replay_wall, replay_mflops = eval_bench_replay kernel ~n in
        let per_sec evals seconds =
          if seconds > 0.0 then float_of_int evals /. seconds else 0.0
        in
        let delivered = replay.Core.Engine.fresh + replay.Core.Engine.repriced in
        let replay_per_sec = per_sec delivered replay.Core.Engine.eval_seconds in
        (* Negative = the sampled search found a better point than the
           exact search; the winner itself is always exact-measured. *)
        let replay_degradation =
          if fast_mflops > 0.0 then
            (fast_mflops -. replay_mflops) /. fast_mflops *. 100.0
          else 0.0
        in
        let sweep_k, sweep_unb, sweep_rep, sweep_rep_sampled =
          sweep_microbench kernel ~n
        in
        let speedup = if fast_s > 0.0 then reference_s /. fast_s else 0.0 in
        Format.printf
          "  fast: %d evals in %.3fs (%.0f evals/s)  closures: %.3fs \
           (%.0f evals/s)  speedup %.2fx@."
          evals fast_s (per_sec evals fast_s) reference_s
          (per_sec evals reference_s) speedup;
        Format.printf
          "  replay: %d delivered (%d fresh, %d repriced, %d sampled) in \
           %.3fs (%.0f evals/s)  %.1f MFLOPS (deg %+.2f%%)@."
          delivered replay.Core.Engine.fresh replay.Core.Engine.repriced
          replay.Core.Engine.sampled replay.Core.Engine.eval_seconds
          replay_per_sec replay_mflops replay_degradation;
        Format.printf
          "  sweep (K=%d): unbatched %.0f evals/s  replay %.0f evals/s \
           (%.1fx)  replay+sampled %.0f evals/s (%.1fx)@."
          sweep_k sweep_unb sweep_rep
          (if sweep_unb > 0.0 then sweep_rep /. sweep_unb else 0.0)
          sweep_rep_sampled
          (if sweep_unb > 0.0 then sweep_rep_sampled /. sweep_unb else 0.0);
        Printf.sprintf
          "  {\"kernel\": \"%s\", \"n\": %d, \"budget\": %d,\n\
          \   \"fast_evals\": %d, \"fast_eval_seconds\": %.4f, \
           \"fast_evals_per_sec\": %.1f,\n\
          \   \"fast_wall_seconds\": %.4f, \"trace_hits\": %d, \
           \"trace_fills\": %d,\n\
          \   \"closures_evals\": %d, \"closures_eval_seconds\": %.4f, \
           \"closures_evals_per_sec\": %.1f,\n\
          \   \"closures_wall_seconds\": %.4f, \"speedup\": %.2f,\n\
          \   \"replay_delivered_evals\": %d, \"replay_fresh\": %d, \
           \"replay_repriced\": %d, \"replay_sampled\": %d,\n\
          \   \"replay_batched_groups\": %d, \"replay_eval_seconds\": %.4f, \
           \"replay_evals_per_sec\": %.1f,\n\
          \   \"replay_wall_seconds\": %.4f, \"replay_mflops\": %.2f, \
           \"replay_degradation_pct\": %.2f,\n\
          \   \"sweep_k\": %d, \"sweep_unbatched_evals_per_sec\": %.1f, \
           \"sweep_replay_evals_per_sec\": %.1f,\n\
          \   \"sweep_replay_sampled_evals_per_sec\": %.1f, \
           \"sweep_speedup\": %.2f, \"sweep_sampled_speedup\": %.2f}"
          name n
          (match eval_bench_mode with
          | Core.Executor.Budget b -> b
          | Core.Executor.Full -> 0)
          evals fast_s (per_sec evals fast_s) fast_wall
          fast.Core.Engine.trace_hits fast.Core.Engine.trace_fills evals
          reference_s (per_sec evals reference_s) reference_s speedup
          delivered replay.Core.Engine.fresh replay.Core.Engine.repriced
          replay.Core.Engine.sampled replay.Core.Engine.batched_groups
          replay.Core.Engine.eval_seconds
          replay_per_sec replay_wall replay_mflops replay_degradation sweep_k
          sweep_unb sweep_rep sweep_rep_sampled
          (if sweep_unb > 0.0 then sweep_rep /. sweep_unb else 0.0)
          (if sweep_unb > 0.0 then sweep_rep_sampled /. sweep_unb else 0.0))
      eval_bench_cases
  in
  let oc = open_out "BENCH_eval.json" in
  output_string oc ("[\n" ^ String.concat ",\n" entries ^ "\n]\n");
  close_out oc;
  Format.printf "wrote BENCH_eval.json (%d entries)@." (List.length entries)

(* Analytical-tier benchmark: how much cheaper is one model prediction
   than one simulation, and what does trusting the model's ranking buy
   (simulations saved at the default top-k) and cost (chosen-point
   degradation, rank agreement) on the real searches.  The search-side
   numbers come from the rankcheck experiment; the throughput numbers
   time the two evaluation paths on the same candidate points.  Emits
   BENCH_model.json. *)

let model_bench_machine = Machine.sgi_r10000

let emit_model_json () =
  let entries =
    List.map
      (fun ((kernel : Kernels.Kernel.t), n) ->
        let name = kernel.Kernels.Kernel.name in
        Format.printf "model bench: %s n=%d...@." name n;
        let row =
          Experiments.Rankcheck.run_one ~mode:eval_bench_mode
            model_bench_machine kernel ~n
        in
        (* Throughput: the same candidate points through the analytical
           model and through the simulator.  The model is cheap enough
           that timing one pass would measure clock noise, hence the
           repetition count. *)
        let v = List.hd (Core.Derive.variants model_bench_machine kernel) in
        let point ti =
          List.map
            (fun (p : Core.Param.t) ->
              match p.Core.Param.kind with
              | Core.Param.Tile -> (p.Core.Param.name, ti)
              | Core.Param.Unroll -> (p.Core.Param.name, 2))
            (Core.Variant.params v)
        in
        let tiles = [ 8; 12; 16; 20; 24; 28; 32; 40 ] in
        let prepared = Core.Predict.prepare v ~n in
        let reps = 500 in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to reps do
          List.iter
            (fun ti ->
              ignore
                (Core.Predict.score model_bench_machine prepared
                   ~bindings:(point ti) ~prefetch:[]))
            tiles
        done;
        let model_seconds = Unix.gettimeofday () -. t0 in
        let model_evals = reps * List.length tiles in
        let engine = Core.Engine.create model_bench_machine in
        let t0 = Unix.gettimeofday () in
        List.iter
          (fun ti ->
            ignore
              (Core.Engine.evaluate engine
                 {
                   Core.Engine.variant = v;
                   n;
                   mode = eval_bench_mode;
                   bindings = point ti;
                   prefetch = [];
                   check = false;
                 }))
          tiles;
        let sim_seconds = Unix.gettimeofday () -. t0 in
        let sim_evals = (Core.Engine.stats engine).Core.Engine.fresh in
        let per_sec evals seconds =
          if seconds > 0.0 then float_of_int evals /. seconds else 0.0
        in
        let model_per_sec = per_sec model_evals model_seconds in
        let sim_per_sec = per_sec sim_evals sim_seconds in
        let cost_ratio =
          if model_per_sec > 0.0 then model_per_sec /. sim_per_sec else 0.0
        in
        let saved_ratio =
          if row.Experiments.Rankcheck.sims_on > 0 then
            float_of_int row.Experiments.Rankcheck.sims_off
            /. float_of_int row.Experiments.Rankcheck.sims_on
          else 0.0
        in
        Format.printf
          "  model: %.0f evals/s  sim: %.0f evals/s (%.0fx)  spearman %.3f  \
           recall %.2f  sims %d -> %d (%.2fx)  degradation %.2f%%@."
          model_per_sec sim_per_sec cost_ratio
          row.Experiments.Rankcheck.spearman row.Experiments.Rankcheck.recall
          row.Experiments.Rankcheck.sims_off row.Experiments.Rankcheck.sims_on
          saved_ratio row.Experiments.Rankcheck.degradation_pct;
        Printf.sprintf
          "  {\"kernel\": \"%s\", \"n\": %d, \"machine\": \"%s\", \
           \"top_k\": %d,\n\
          \   \"model_evals_per_sec\": %.1f, \"sim_evals_per_sec\": %.1f, \
           \"model_vs_sim_ratio\": %.1f,\n\
          \   \"spearman\": %.4f, \"recall\": %.4f,\n\
          \   \"sims_off\": %d, \"sims_on\": %d, \"prefiltered\": %d, \
           \"sims_saved_ratio\": %.2f,\n\
          \   \"mflops_off\": %.2f, \"mflops_on\": %.2f, \
           \"degradation_pct\": %.2f}"
          name n
          model_bench_machine.Machine.name
          Core.Engine.default_prefilter model_per_sec sim_per_sec cost_ratio
          row.Experiments.Rankcheck.spearman row.Experiments.Rankcheck.recall
          row.Experiments.Rankcheck.sims_off row.Experiments.Rankcheck.sims_on
          row.Experiments.Rankcheck.prefiltered saved_ratio
          row.Experiments.Rankcheck.mflops_off
          row.Experiments.Rankcheck.mflops_on
          row.Experiments.Rankcheck.degradation_pct)
      eval_bench_cases
  in
  let oc = open_out "BENCH_model.json" in
  output_string oc ("[\n" ^ String.concat ",\n" entries ^ "\n]\n");
  close_out oc;
  Format.printf "wrote BENCH_model.json (%d entries)@." (List.length entries)

let () =
  if Array.exists (( = ) "--eval-bench") Sys.argv then emit_eval_json ()
  else if Array.exists (( = ) "--model-bench") Sys.argv then
    emit_model_json ()
  else begin
    Format.printf "=== Bechamel micro-benchmarks (one per paper artifact) ===@.";
    run_benchmarks ();
    Format.printf
      "@.=== Full reproduction of the paper's tables and figures ===@.";
    Experiments.Run_all.run_everything ~print:print_endline ();
    emit_search_json (Experiments.Search_cost.run ());
    emit_eval_json ();
    emit_model_json ()
  end
