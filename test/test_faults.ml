(* Tests for the fault-injection plan and the engine's resilient
   measurement protocol: seeded determinism, retry/quarantine, robust
   aggregation and checkpoint recovery. *)

module Matmul = Kernels.Matmul

let sgi = Machine.sgi_r10000
let fast = Core.Executor.Budget 30_000

let variant () = List.hd (Core.Derive.variants sgi Matmul.kernel)

let some_point engine v ~n =
  match Core.Search.model_point (Core.Engine.machine engine) ~n v with
  | Some bindings -> bindings
  | None -> Alcotest.fail "no model point for test variant"

(* --- the plan itself: pure, seeded, robust aggregation --- *)

let test_draw_deterministic () =
  let t = Faults.make ~seed:9 ~noise:0.1 ~transient:0.3 ~hang:0.1 () in
  for trial = 0 to 20 do
    for attempt = 0 to 3 do
      let a = Faults.draw t ~key:"k1|x" ~trial ~attempt in
      let b = Faults.draw t ~key:"k1|x" ~trial ~attempt in
      Alcotest.(check bool) "same args, same fate" true (a = b)
    done
  done;
  (* Distinct keys see independent streams: at these rates they cannot
     all agree across 84 draws. *)
  let differs = ref false in
  for trial = 0 to 20 do
    for attempt = 0 to 3 do
      if
        Faults.draw t ~key:"k1|x" ~trial ~attempt
        <> Faults.draw t ~key:"k2|y" ~trial ~attempt
      then differs := true
    done
  done;
  Alcotest.(check bool) "distinct keys, distinct streams" true !differs

let test_spec_roundtrip () =
  let t =
    Faults.make ~seed:5 ~noise:0.05 ~transient:0.02 ~hang:0.01 ~outlier:0.01 ()
  in
  Alcotest.(check bool) "roundtrip" true (Faults.of_spec (Faults.to_spec t) = t);
  Alcotest.(check string) "none" "none" (Faults.to_spec Faults.none);
  Alcotest.(check bool) "none parses" true (Faults.of_spec "none" = Faults.none);
  (match Faults.of_spec "transient=2" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted out-of-range rate");
  (match Faults.of_spec "nose=0.1" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted unknown key");
  match Faults.of_spec "crash=0.1" with
  | exception Invalid_argument m ->
    Alcotest.(check bool) "crash is an unknown key" true
      (String.starts_with ~prefix:"Faults.of_spec: unknown key" m)
  | _ -> Alcotest.fail "accepted the removed crash key"

let test_aggregate_trims_outlier () =
  Alcotest.(check (float 1e-9)) "median odd" 100.0
    (Faults.median [| 99.0; 100.0; 101.0 |]);
  Alcotest.(check (float 1e-9)) "median even" 100.5
    (Faults.median [| 99.0; 100.0; 101.0; 102.0 |]);
  (* A single corrupted sample must not reach the aggregate. *)
  let agg = Faults.aggregate [| 100.0; 101.0; 99.0; 100.0; 5000.0 |] in
  Alcotest.(check bool) "trimmed mean ignores the outlier" true
    (agg >= 99.0 && agg <= 101.0);
  Alcotest.(check (float 1e-9)) "spread of constant" 0.0
    (Faults.rel_spread [| 7.0; 7.0; 7.0 |]);
  Alcotest.(check (float 1e-9)) "spread" 0.02
    (Faults.rel_spread [| 99.0; 100.0; 101.0 |])

(* --- sweep groups of the full search under injected faults --- *)

(* The batched groups of a noisy search, measured directly or, with
   [incremental], re-pricing its sweep groups.  The staged search's
   prefetch descent evaluates one plan at a time and forms no group, so
   the re-priced run uses the armed search ([prefilter]), whose prefetch
   sweeps do. *)
let noisy_groups ?prefilter ?(incremental = false) () =
  let faults = Faults.make ~seed:13 ~noise:0.05 ~transient:0.05 ~hang:0.02 () in
  let protocol = { Core.Engine.default_protocol with trials = 5 } in
  let engine = Core.Engine.create ?prefilter ~faults ~protocol sgi in
  Core.Engine.set_incremental engine incremental;
  ignore (Core.Eco.optimize_with ~mode:fast engine Matmul.kernel ~n:32);
  (Core.Engine.stats engine).Core.Engine.batched_groups

let test_faulty_search_groups () =
  Alcotest.(check int) "every candidate measured directly" 0 (noisy_groups ());
  (* The protocol applies per member after a re-priced group's walk, so
     sweeps stay grouped under an active plan with repeated trials. *)
  Alcotest.(check bool) "sweeps grouped under the protocol" true
    (noisy_groups ~prefilter:Core.Engine.default_prefilter ~incremental:true ()
     > 0)

let test_zero_rate_plan_is_transparent () =
  (* An active plan with every rate at zero runs the whole protocol
     (draws, trials, aggregation, adaptive stop) yet must reproduce the
     plain engine bit for bit, on every kernel, whether candidates are
     measured directly or sweep groups are re-priced.  The direct runs
     are the staged search; the re-priced runs are the armed search
     ([prefilter]), whose prefetch sweeps form the groups (the staged
     descent evaluates one plan at a time). *)
  List.iter
    (fun ((kernel : Kernels.Kernel.t), incremental) ->
      let name =
        kernel.Kernels.Kernel.name ^ if incremental then " re-priced" else ""
      in
      let check_int what = Alcotest.(check int) (name ^ ": " ^ what) in
      let prefilter =
        if incremental then Some Core.Engine.default_prefilter else None
      in
      let plain = Core.Engine.create ?prefilter sgi in
      Core.Engine.set_incremental plain incremental;
      let r0 = Core.Eco.optimize_with ~mode:fast plain kernel ~n:32 in
      let protocol = { Core.Engine.default_protocol with trials = 3 } in
      let guarded =
        Core.Engine.create ?prefilter ~faults:(Faults.make ~seed:1 ()) ~protocol
          sgi
      in
      Core.Engine.set_incremental guarded incremental;
      let r1 = Core.Eco.optimize_with ~mode:fast guarded kernel ~n:32 in
      Alcotest.(check (float 0.0)) (name ^ ": identical best cycles")
        (Core.Executor.cycles r0.Core.Eco.measurement)
        (Core.Executor.cycles r1.Core.Eco.measurement);
      Alcotest.(check bool) (name ^ ": identical best point") true
        (r0.Core.Eco.outcome.Core.Search.variant.Core.Variant.name
         = r1.Core.Eco.outcome.Core.Search.variant.Core.Variant.name
        && r0.Core.Eco.outcome.Core.Search.bindings
           = r1.Core.Eco.outcome.Core.Search.bindings
        && r0.Core.Eco.outcome.Core.Search.prefetch
           = r1.Core.Eco.outcome.Core.Search.prefetch);
      let s0 = Core.Engine.stats plain and s1 = Core.Engine.stats guarded in
      check_int "same fresh evaluations" s0.Core.Engine.fresh
        s1.Core.Engine.fresh;
      (* The same work, counted: the protocol applies per member after
         the group walk, so it must not change how candidates are
         grouped, served from the memo or the trace cache, re-priced or
         pruned.  Only re-pricing forms groups. *)
      Alcotest.(check bool)
        (name ^ ": the plain run grouped its sweeps iff it re-priced")
        incremental
        (s0.Core.Engine.batched_groups > 0);
      List.iter
        (fun (what, count) -> check_int ("same " ^ what) (count s0) (count s1))
        [
          ("memo hits", fun s -> s.Core.Engine.hits);
          ("pruned", fun s -> s.Core.Engine.pruned);
          ("batched groups", fun s -> s.Core.Engine.batched_groups);
          ("batched candidates", fun s -> s.Core.Engine.batched_candidates);
          ("re-priced", fun s -> s.Core.Engine.repriced);
          ("trace hits", fun s -> s.Core.Engine.trace_hits);
          ("trace fills", fun s -> s.Core.Engine.trace_fills);
        ];
      (* Identical samples stop every candidate's trials at the minimum. *)
      check_int "every candidate stopped early" s1.Core.Engine.fresh
        s1.Core.Engine.early_stops;
      check_int "no retries" 0 s1.Core.Engine.retries)
    (List.concat_map
       (fun k -> [ (k, false); (k, true) ])
       [
         Matmul.kernel;
         Kernels.Jacobi3d.kernel;
         Kernels.Matvec.kernel;
         Kernels.Stencil2d.kernel;
         Kernels.Wavefront.kernel;
       ])

(* --- retry, quarantine, timeout --- *)

let eval_once ?(protocol = Core.Engine.default_protocol) faults =
  let engine = Core.Engine.create ~faults ~protocol sgi in
  let v = variant () in
  let bindings = some_point engine v ~n:32 in
  let req = Core.Engine.request v ~n:32 ~mode:fast ~bindings in
  (engine, req, Core.Engine.evaluate engine req)

let test_persistent_failure_quarantined () =
  let faults = Faults.make ~seed:2 ~transient:1.0 () in
  let engine, req, ev = eval_once faults in
  Alcotest.(check bool) "no measurement" true (ev = None);
  (match Core.Engine.explain engine req with
  | `Failed Core.Engine.Quarantined -> ()
  | _ -> Alcotest.fail "expected a quarantined candidate");
  let s = Core.Engine.stats engine in
  Alcotest.(check int) "exhausted the retry budget"
    Core.Engine.default_protocol.Core.Engine.max_retries s.Core.Engine.retries;
  Alcotest.(check int) "counted as quarantined" 1
    s.Core.Engine.failed_quarantined;
  (* The quarantine is memoized: asking again is a memo hit, not a
     re-measurement. *)
  Alcotest.(check bool) "still no measurement" true
    (Core.Engine.evaluate engine req = None);
  let s' = Core.Engine.stats engine in
  Alcotest.(check int) "served from memo" 1 s'.Core.Engine.hits;
  Alcotest.(check int) "no further retries" s.Core.Engine.retries
    s'.Core.Engine.retries

let test_no_retry_budget_reports_transient () =
  let faults = Faults.make ~seed:2 ~transient:1.0 () in
  let protocol = { Core.Engine.default_protocol with max_retries = 0 } in
  let engine, req, ev = eval_once ~protocol faults in
  Alcotest.(check bool) "no measurement" true (ev = None);
  match Core.Engine.explain engine req with
  | `Failed Core.Engine.Transient -> ()
  | _ -> Alcotest.fail "expected the bare transient reason"

let test_cycle_cap_times_out () =
  let protocol = { Core.Engine.default_protocol with cycle_cap = 1.0 } in
  let engine, req, ev = eval_once ~protocol Faults.none in
  Alcotest.(check bool) "no measurement" true (ev = None);
  (match Core.Engine.explain engine req with
  | `Failed Core.Engine.Timeout -> ()
  | _ -> Alcotest.fail "expected a timeout");
  Alcotest.(check int) "counted as timeout" 1
    (Core.Engine.stats engine).Core.Engine.failed_timeout

let test_outlier_absorbed () =
  (* Corrupted 25x measurements must be trimmed out of the aggregate:
     the measured cycles stay within noise of the clean value. *)
  let clean_engine = Core.Engine.create sgi in
  let v = variant () in
  let bindings = some_point clean_engine v ~n:32 in
  let req = Core.Engine.request v ~n:32 ~mode:fast ~bindings in
  let clean =
    match Core.Engine.evaluate clean_engine req with
    | Some ev -> Core.Executor.cycles ev.Core.Engine.measurement
    | None -> Alcotest.fail "clean evaluation failed"
  in
  let faults = Faults.make ~seed:4 ~noise:0.01 ~outlier:0.1 () in
  let protocol =
    { Core.Engine.default_protocol with trials = 15; min_trials = 15 }
  in
  let engine = Core.Engine.create ~faults ~protocol sgi in
  match Core.Engine.evaluate engine req with
  | None -> Alcotest.fail "faulty evaluation failed"
  | Some ev ->
    let c = Core.Executor.cycles ev.Core.Engine.measurement in
    Alcotest.(check bool) "aggregate near the clean value" true
      (abs_float (c -. clean) /. clean < 0.05)

(* --- checkpointing: kill, resume, equivalence --- *)

let ck_tune engine = Core.Eco.optimize_with ~mode:fast engine Matmul.kernel ~n:32

let answer (r : Core.Eco.result) =
  let o = r.Core.Eco.outcome in
  ( o.Core.Search.variant.Core.Variant.name,
    o.Core.Search.bindings,
    o.Core.Search.prefetch,
    Core.Executor.cycles r.Core.Eco.measurement )

(* Kill/resume on engines from [make], checkpointing every 4 fresh
   evaluations.  The resumed search must meet every re-priced member
   of the checkpointed groups with the dead run's verdict: re-priced
   afresh around another base plan, they would cost fresh evaluations
   the uninterrupted run never made. *)
let kill_resume ~limit ~grouped make =
  let file = Filename.temp_file "eco_ck" ".bin" in
  let tag = "test|matmul|n=32" in
  (* A run killed mid-search (after [limit] fresh evaluations,
     checkpointing every 4)... *)
  let a = make () in
  Core.Engine.set_checkpoint a ~every:4 ~tag file;
  Core.Engine.set_eval_limit a limit;
  (match ck_tune a with
  | exception Core.Engine.Eval_limit_reached l when l = limit -> ()
  | _ -> Alcotest.fail "expected the injected kill");
  Alcotest.(check bool) "a sweep group was batched before the kill iff \
     grouping" grouped
    ((Core.Engine.stats a).Core.Engine.batched_groups > 0);
  (* ...must resume from its checkpoint and finish with the exact
     answer and telemetry of an uninterrupted run. *)
  let b = make () in
  Core.Engine.set_checkpoint b ~every:4 ~tag file;
  (match Core.Engine.load_checkpoint b ~tag file with
  | None -> Alcotest.fail "checkpoint did not load"
  | Some resume ->
    Alcotest.(check bool) "resumed a nonempty memo" true
      (resume.Core.Engine.resumed_entries > 0);
    Alcotest.(check bool) "kept only complete checkpoints" true
      (resume.Core.Engine.resumed_fresh < limit));
  Alcotest.(check bool) "the checkpoint holds re-priced members iff grouping"
    grouped
    ((Core.Engine.stats b).Core.Engine.repriced > 0);
  let resumed = ck_tune b in
  let c = make () in
  let uninterrupted = ck_tune c in
  Alcotest.(check bool) "resumed answer = uninterrupted answer" true
    (answer resumed = answer uninterrupted);
  let totals e =
    let s = Core.Engine.stats e in
    ( s.Core.Engine.fresh,
      s.Core.Engine.pruned,
      s.Core.Engine.failed,
      s.Core.Engine.retries,
      s.Core.Engine.simulated_cycles )
  in
  (* The resumed engine's lifetime totals (restored + finished) match
     the uninterrupted run's: no evaluation was lost or repeated. *)
  Alcotest.(check bool) "telemetry adds up across the kill" true
    (totals b = totals c);
  Sys.remove file

let test_checkpoint_kill_resume_equivalence () =
  (* The plain engine measures every candidate directly. *)
  kill_resume ~limit:25 ~grouped:false (fun () -> Core.Engine.create sgi);
  (* Guarded engines (value-preserving plan, 3 trials) re-pricing their
     prefetch sweep groups. *)
  let guarded ?prefilter ?sampling () =
    let e =
      Core.Engine.create ?prefilter
        ~faults:(Faults.make ~seed:7 ~transient:0.05 ~hang:0.02 ())
        ~protocol:{ Core.Engine.default_protocol with trials = 3 }
        sgi
    in
    Core.Engine.set_sampling e sampling;
    Core.Engine.set_incremental e true;
    e
  in
  (* The armed search ([prefilter]): its last checkpoint falls due at
     fresh evaluation 20, among the commits of the batch holding its
     second group, and is written once that batch has committed: it
     holds two sweep groups with five re-priced members. *)
  kill_resume ~limit:21 ~grouped:true
    (guarded ~prefilter:Core.Engine.default_prefilter);
  (* The staged sampled search: its checkpoint falls due at 132 in the
     exact winner polish, is written after that group's batch, and holds
     five sweep groups with eight re-priced members.  Its replay also
     re-runs the confirmation passes, whose rank evidence sizes the
     adaptive confirm quota and must count once. *)
  kill_resume ~limit:133 ~grouped:true
    (guarded ~sampling:Memsim.Sampling.default)

let test_checkpoint_tag_mismatch_refuses () =
  let file = Filename.temp_file "eco_ck" ".bin" in
  let a = Core.Engine.create sgi in
  Core.Engine.set_checkpoint a ~every:4 ~tag:"run-A" file;
  ignore (ck_tune a);
  Core.Engine.checkpoint_now a;
  let b = Core.Engine.create sgi in
  (match Core.Engine.load_checkpoint b ~tag:"run-B" file with
  | exception Core.Engine.Checkpoint_mismatch _ -> ()
  | _ -> Alcotest.fail "loaded a checkpoint from a different run");
  Sys.remove file

let test_checkpoint_corrupt_file_ignored () =
  let file = Filename.temp_file "eco_ck" ".bin" in
  let oc = open_out_bin file in
  output_string oc "not a checkpoint at all";
  close_out oc;
  let b = Core.Engine.create sgi in
  Alcotest.(check bool) "corrupt file means a fresh start" true
    (Core.Engine.load_checkpoint b ~tag:"t" file = None);
  Alcotest.(check bool) "missing file means a fresh start" true
    (Core.Engine.load_checkpoint b ~tag:"t" "/nonexistent/ck.bin" = None);
  (* A real checkpoint with one payload byte flipped fails the digest
     the writer patched in after streaming the payload.  The writer runs
     the armed search ([prefilter]) with the re-pricer on, so its
     prefetch sweeps capture demand traces. *)
  let a = Core.Engine.create ~prefilter:Core.Engine.default_prefilter sgi in
  Core.Engine.set_incremental a true;
  Core.Engine.set_checkpoint a ~tag:"t" file;
  ignore (ck_tune a);
  Core.Engine.checkpoint_now a;
  let b = Core.Engine.create sgi in
  Alcotest.(check bool) "the intact checkpoint loads" true
    (Core.Engine.load_checkpoint b ~tag:"t" file <> None);
  (* The checkpoint holds the whole counter record: the resumed engine
     reads every counter of the writer, the re-pricer's demand-trace
     ones included. *)
  let sa = Core.Engine.stats a and sb = Core.Engine.stats b in
  Alcotest.(check bool) "the writer captured demand traces" true
    (sa.Core.Engine.trace_fills > 0);
  Alcotest.(check bool) "every counter restored" true (sa = sb);
  let bytes = In_channel.with_open_bin file In_channel.input_all in
  let flipped = Bytes.of_string bytes in
  let i = String.length bytes / 2 in
  Bytes.set flipped i (Char.chr (Char.code bytes.[i] lxor 0x01));
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_bytes oc flipped);
  Alcotest.(check bool) "a flipped payload byte means a fresh start" true
    (Core.Engine.load_checkpoint (Core.Engine.create sgi) ~tag:"t" file = None);
  (* The same intact checkpoint under the previous format version's
     magic: it must load as a fresh start and never reach the tag
     check, which would refuse it as a different run. *)
  let magic = "ECO-CHECKPOINT-9\n" in
  let body = String.length bytes - String.length magic in
  Alcotest.(check string) "written with the current magic" magic
    (String.sub bytes 0 (String.length magic));
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc
        ("ECO-CHECKPOINT-8\n" ^ String.sub bytes (String.length magic) body));
  Alcotest.(check bool) "a version-8 checkpoint means a fresh start" true
    (Core.Engine.load_checkpoint (Core.Engine.create sgi) ~tag:"another run"
       file
    = None);
  Sys.remove file

let suite =
  [
    Alcotest.test_case "plan: draws are pure" `Quick test_draw_deterministic;
    Alcotest.test_case "plan: spec roundtrip" `Quick test_spec_roundtrip;
    Alcotest.test_case "plan: aggregation trims outliers" `Quick
      test_aggregate_trims_outlier;
    Alcotest.test_case "search under faults: groups iff re-priced" `Quick
      test_faulty_search_groups;
    Alcotest.test_case "zero-rate plan is transparent" `Quick
      test_zero_rate_plan_is_transparent;
    Alcotest.test_case "persistent failure is quarantined" `Quick
      test_persistent_failure_quarantined;
    Alcotest.test_case "no retry budget reports transient" `Quick
      test_no_retry_budget_reports_transient;
    Alcotest.test_case "cycle cap times out" `Quick test_cycle_cap_times_out;
    Alcotest.test_case "outliers absorbed by trials" `Quick
      test_outlier_absorbed;
    Alcotest.test_case "checkpoint: kill/resume equivalence" `Quick
      test_checkpoint_kill_resume_equivalence;
    Alcotest.test_case "checkpoint: tag mismatch refused" `Quick
      test_checkpoint_tag_mismatch_refuses;
    Alcotest.test_case "checkpoint: corrupt file ignored" `Quick
      test_checkpoint_corrupt_file_ignored;
  ]
