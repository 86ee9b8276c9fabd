(* Tests for the evaluation engine: memoization identity, fingerprint
   discrimination, serial/parallel equivalence and telemetry. *)

module Matmul = Kernels.Matmul

let sgi = Machine.sgi_r10000
let fast = Core.Executor.Budget 30_000

let variant () = List.hd (Core.Derive.variants sgi Matmul.kernel)

let some_point engine v ~n =
  match Core.Search.model_point (Core.Engine.machine engine) ~n v with
  | Some bindings -> bindings
  | None -> Alcotest.fail "no model point for test variant"

(* --- memoization --- *)

let test_cache_hit_identical () =
  let engine = Core.Engine.create sgi in
  let v = variant () in
  let bindings = some_point engine v ~n:48 in
  let req = Core.Engine.request v ~n:48 ~mode:fast ~bindings in
  let first =
    match Core.Engine.evaluate engine req with
    | Some ev -> ev
    | None -> Alcotest.fail "first evaluation failed"
  in
  Alcotest.(check bool) "first is fresh" false first.Core.Engine.cached;
  let second =
    match Core.Engine.evaluate engine req with
    | Some ev -> ev
    | None -> Alcotest.fail "second evaluation failed"
  in
  Alcotest.(check bool) "second is cached" true second.Core.Engine.cached;
  (* The memo must return the very same measurement, not a re-run. *)
  Alcotest.(check bool) "identical measurement" true
    (first.Core.Engine.measurement == second.Core.Engine.measurement);
  let s = Core.Engine.stats engine in
  Alcotest.(check int) "one fresh" 1 s.Core.Engine.fresh;
  Alcotest.(check int) "one hit" 1 s.Core.Engine.hits

let test_distinct_fingerprints_miss () =
  let engine = Core.Engine.create sgi in
  let v = variant () in
  let bindings = some_point engine v ~n:48 in
  let req = Core.Engine.request v ~n:48 ~mode:fast ~bindings in
  ignore (Core.Engine.evaluate engine req);
  (* Different mode, different bindings, different prefetch: all misses. *)
  ignore
    (Core.Engine.evaluate engine
       (Core.Engine.request v ~n:48 ~mode:(Core.Executor.Budget 60_000) ~bindings));
  let bumped =
    match bindings with
    | (k, x) :: rest -> (k, max 1 (x / 2)) :: rest
    | [] -> []
  in
  ignore
    (Core.Engine.evaluate engine
       (Core.Engine.request v ~n:48 ~mode:fast ~bindings:bumped));
  ignore
    (Core.Engine.evaluate engine
       (Core.Engine.request ~prefetch:[ ("a", 4) ] v ~n:48 ~mode:fast ~bindings));
  let s = Core.Engine.stats engine in
  Alcotest.(check int) "no hits across distinct fingerprints" 0
    s.Core.Engine.hits;
  Alcotest.(check int) "four fresh evaluations" 4 s.Core.Engine.fresh

let test_binding_order_canonical () =
  let engine = Core.Engine.create sgi in
  let v = variant () in
  let bindings = some_point engine v ~n:48 in
  ignore
    (Core.Engine.evaluate engine (Core.Engine.request v ~n:48 ~mode:fast ~bindings));
  ignore
    (Core.Engine.evaluate engine
       (Core.Engine.request v ~n:48 ~mode:fast ~bindings:(List.rev bindings)));
  let s = Core.Engine.stats engine in
  Alcotest.(check int) "reversed bindings hit the memo" 1 s.Core.Engine.hits

(* --- parallel equivalence --- *)

let tune_with_jobs jobs =
  let r = Core.Eco.optimize ~mode:fast ~jobs sgi Matmul.kernel ~n:32 in
  let o = r.Core.Eco.outcome in
  ( o.Core.Search.variant.Core.Variant.name,
    o.Core.Search.bindings,
    o.Core.Search.prefetch,
    Core.Executor.cycles r.Core.Eco.measurement )

let test_jobs_same_best () =
  let serial = tune_with_jobs 1 in
  let parallel = tune_with_jobs 4 in
  Alcotest.(check bool) "jobs=1 and jobs=4 find the same best point" true
    (serial = parallel)

let test_batch_matches_serial_evaluates () =
  let v = variant () in
  let bindings = some_point (Core.Engine.create sgi) v ~n:48 in
  (* Four distinct sizes with jobs:2 crosses the engine's small-batch
     threshold, so this exercises the actual Domain.spawn path. *)
  let reqs =
    List.concat_map
      (fun n ->
        [
          Core.Engine.request v ~n ~mode:fast ~bindings;
          (* duplicate within the batch *)
          Core.Engine.request v ~n ~mode:fast ~bindings;
        ])
      [ 24; 32; 40; 48 ]
  in
  let cycles evs =
    List.map
      (function
        | Some (ev : Core.Engine.evaluation) ->
          Core.Executor.cycles ev.Core.Engine.measurement
        | None -> nan)
      evs
  in
  let batch_engine = Core.Engine.create ~jobs:2 sgi in
  let batched = cycles (Core.Engine.evaluate_batch batch_engine reqs) in
  let serial_engine = Core.Engine.create sgi in
  let serial = cycles (List.map (Core.Engine.evaluate serial_engine) reqs) in
  Alcotest.(check (list (float 0.0))) "batched = serial" serial batched;
  (* Counters agree exactly; eval_seconds is wall time and can't. *)
  let counters e =
    let s = Core.Engine.stats e in
    ( s.Core.Engine.hits,
      s.Core.Engine.fresh,
      s.Core.Engine.pruned,
      s.Core.Engine.failed,
      s.Core.Engine.simulated_cycles )
  in
  Alcotest.(check bool) "same counters" true
    (counters batch_engine = counters serial_engine)

(* --- telemetry --- *)

let test_telemetry_adds_up () =
  let engine = Core.Engine.create sgi in
  let log = Core.Search_log.create () in
  let v = variant () in
  let bindings = some_point engine v ~n:48 in
  let infeasible = List.map (fun (k, _) -> (k, 48)) bindings in
  let reqs =
    [
      Core.Engine.request v ~n:48 ~mode:fast ~bindings;
      Core.Engine.request v ~n:48 ~mode:fast ~bindings (* hit *);
      Core.Engine.request v ~n:48 ~mode:fast ~bindings:infeasible (* pruned *);
    ]
  in
  let evs = Core.Engine.evaluate_batch engine ~log reqs in
  Alcotest.(check int) "three answers" 3 (List.length evs);
  let s = Core.Engine.stats engine in
  Alcotest.(check int) "fresh" 1 s.Core.Engine.fresh;
  Alcotest.(check int) "hits" 1 s.Core.Engine.hits;
  Alcotest.(check int) "pruned" 1 s.Core.Engine.pruned;
  (* Engine counters and log counters agree, and the log's [points]
     counts only fresh evaluations. *)
  Alcotest.(check int) "log fresh = engine fresh" s.Core.Engine.fresh
    (Core.Search_log.fresh log);
  Alcotest.(check int) "log hits = engine hits" s.Core.Engine.hits
    (Core.Search_log.hits log);
  Alcotest.(check int) "log pruned = engine pruned" s.Core.Engine.pruned
    (Core.Search_log.pruned log);
  Alcotest.(check int) "points exclude memo hits" 1
    (Core.Search_log.points log);
  Alcotest.(check bool) "simulated cycles positive" true
    (s.Core.Engine.simulated_cycles > 0.0)

let test_measure_program_memoizes () =
  let engine = Core.Engine.create sgi in
  let p = Matmul.kernel.Kernels.Kernel.program in
  let m1 = Core.Engine.measure_program engine Matmul.kernel ~n:24 ~mode:fast p in
  let m2 = Core.Engine.measure_program engine Matmul.kernel ~n:24 ~mode:fast p in
  Alcotest.(check bool) "same measurement object" true (m1 == m2);
  let m3 = Core.Engine.measure_program engine Matmul.kernel ~n:16 ~mode:fast p in
  Alcotest.(check bool) "different size is a fresh run" true (m1 != m3);
  let s = Core.Engine.stats engine in
  Alcotest.(check int) "two fresh" 2 s.Core.Engine.fresh;
  Alcotest.(check int) "one hit" 1 s.Core.Engine.hits

(* --- malformed programs --- *)

(* A prefetch distance below 1 has no program, so the candidate fails
   as a malformed program whether it comes in a sweep group or alone
   next to a cached demand trace; the rest of its group is still
   measured by one walk. *)
let test_distance_below_one_is_malformed () =
  let v = variant () in
  let n = 48 in
  let bindings = some_point (Core.Engine.create sgi) v ~n in
  let a =
    match
      Transform.Prefetch_insert.candidates
        (Core.Variant.instantiate v ~bindings)
    with
    | a :: _ -> a
    | [] -> Alcotest.fail "expected a prefetch candidate"
  in
  let req d =
    Core.Engine.request v ~n ~mode:fast ~bindings ~prefetch:[ (a, d) ]
  in
  let check_malformed what engine =
    match Core.Engine.explain engine (req 0) with
    | `Failed Core.Engine.Malformed_program -> ()
    | _ -> Alcotest.failf "%s: expected a malformed program" what
  in
  let grouped = Core.Engine.create sgi in
  (match Core.Engine.evaluate_batch grouped [ req 0; req 2; req 4 ] with
  | [ None; Some _; Some _ ] -> ()
  | _ -> Alcotest.fail "expected only the distance-0 plan to fail");
  check_malformed "in a batch" grouped;
  let s = Core.Engine.stats grouped in
  Alcotest.(check int) "one group" 1 s.Core.Engine.batched_groups;
  Alcotest.(check int) "of the other two plans" 2
    s.Core.Engine.batched_candidates;
  Alcotest.(check int) "one malformed failure" 1
    s.Core.Engine.failed_malformed;
  (* Alone, with the point's demand trace already captured. *)
  let lone = Core.Engine.create sgi in
  ignore (Core.Engine.evaluate_batch lone [ req 2; req 4 ]);
  Alcotest.(check bool) "a lone request fails" true
    (Core.Engine.evaluate lone (req 0) = None);
  check_malformed "alone" lone

(* --- persistent performance database --- *)

let temp_db () =
  let file = Filename.temp_file "eco_test_engine" ".db" in
  Sys.remove file;
  file

let copy_file src dst =
  let ic = open_in_bin src in
  let len = in_channel_length ic in
  let buf = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc buf;
  close_out oc

let answer (r : Core.Eco.result) =
  let o = r.Core.Eco.outcome in
  ( o.Core.Search.variant.Core.Variant.name,
    o.Core.Search.bindings,
    o.Core.Search.prefetch,
    Core.Executor.cycles r.Core.Eco.measurement )

let log_points (r : Core.Eco.result) =
  List.map
    (fun (e : Core.Search_log.entry) ->
      ( e.Core.Search_log.variant,
        e.Core.Search_log.bindings,
        e.Core.Search_log.prefetch,
        e.Core.Search_log.cycles ))
    (Core.Search_log.entries r.Core.Eco.log)

(* An engine with an EMPTY (or absent) database attached must search
   byte-identically to one with no database at all: same answer, same
   candidate sequence, same fresh count. *)
let test_empty_db_byte_identical () =
  let bare = Core.Engine.create ~prefilter:Core.Engine.default_prefilter sgi in
  let r_bare = Core.Eco.optimize_with ~mode:fast bare Matmul.kernel ~n:24 in
  let file = temp_db () in
  let db = Perfdb.load file in
  let dbed = Core.Engine.create ~prefilter:Core.Engine.default_prefilter sgi in
  Core.Engine.set_db dbed db;
  let r_db = Core.Eco.optimize_with ~mode:fast dbed Matmul.kernel ~n:24 in
  Perfdb.close db;
  Alcotest.(check bool) "same answer" true (answer r_bare = answer r_db);
  Alcotest.(check bool) "same candidate sequence" true
    (log_points r_bare = log_points r_db);
  Alcotest.(check int) "same fresh count"
    (Core.Engine.stats bare).Core.Engine.fresh
    (Core.Engine.stats dbed).Core.Engine.fresh;
  Alcotest.(check int) "no warm seeds from an empty store" 0
    (Core.Engine.stats dbed).Core.Engine.warm_starts;
  Sys.remove file

let populate file ~n =
  let db = Perfdb.load file in
  let eng = Core.Engine.create ~prefilter:Core.Engine.default_prefilter sgi in
  Core.Engine.set_db eng db;
  let r = Core.Eco.optimize_with ~mode:fast eng Matmul.kernel ~n in
  Perfdb.close db;
  (answer r, (Core.Engine.stats eng).Core.Engine.fresh)

(* Warm-started searches are deterministic under parallel evaluation:
   jobs=1 and jobs=4 against identical copies of a populated store
   agree bit-for-bit.  (Each run gets its own copy: a warm run appends
   its measurements and summary as it goes, so sharing one file would
   hand the second run a different donor.) *)
let test_warm_start_jobs_identical () =
  let file = temp_db () in
  let _ = populate file ~n:24 in
  let run jobs =
    let copy = temp_db () in
    copy_file file copy;
    let db = Perfdb.load copy in
    let eng =
      Core.Engine.create ~jobs ~prefilter:Core.Engine.default_prefilter sgi
    in
    Core.Engine.set_db eng db;
    let r = Core.Eco.optimize_with ~mode:fast eng Matmul.kernel ~n:32 in
    Perfdb.close db;
    Sys.remove copy;
    (answer r, log_points r, (Core.Engine.stats eng).Core.Engine.warm_starts)
  in
  let a1, l1, w1 = run 1 in
  let a4, l4, w4 = run 4 in
  Alcotest.(check bool) "jobs=1 = jobs=4 answer" true (a1 = a4);
  Alcotest.(check bool) "jobs=1 = jobs=4 candidates" true (l1 = l4);
  Alcotest.(check bool) "warm seeds transferred" true (w1 > 0 && w1 = w4);
  Sys.remove file

(* With warm-starting disabled, a fully-populated store replays the
   original search without a single fresh simulation — and lands on the
   same answer. *)
let test_no_warm_start_full_replay () =
  let file = temp_db () in
  let ans0, fresh0 = populate file ~n:24 in
  let db = Perfdb.load file in
  let eng = Core.Engine.create ~prefilter:Core.Engine.default_prefilter sgi in
  Core.Engine.set_db eng ~warm_start:false db;
  let r = Core.Eco.optimize_with ~mode:fast eng Matmul.kernel ~n:24 in
  Perfdb.close db;
  let s = Core.Engine.stats eng in
  Alcotest.(check bool) "identical answer" true (answer r = ans0);
  Alcotest.(check int) "zero fresh simulations" 0 s.Core.Engine.fresh;
  Alcotest.(check int) "every simulation served from the store" fresh0
    s.Core.Engine.db_hits;
  Sys.remove file

(* --no-warm-start with only other-size records on file restores the
   plain search path exactly: no exact hits, no seeds, same trajectory. *)
let test_no_warm_start_restores_plain_path () =
  let file = temp_db () in
  let _ = populate file ~n:24 in
  let bare = Core.Engine.create ~prefilter:Core.Engine.default_prefilter sgi in
  let r_bare = Core.Eco.optimize_with ~mode:fast bare Matmul.kernel ~n:32 in
  let db = Perfdb.load file in
  let eng = Core.Engine.create ~prefilter:Core.Engine.default_prefilter sgi in
  Core.Engine.set_db eng ~warm_start:false db;
  let r = Core.Eco.optimize_with ~mode:fast eng Matmul.kernel ~n:32 in
  Perfdb.close db;
  let s = Core.Engine.stats eng in
  Alcotest.(check bool) "same answer as the no-db search" true
    (answer r = answer r_bare);
  Alcotest.(check bool) "same candidate sequence" true
    (log_points r = log_points r_bare);
  Alcotest.(check int) "no exact hits across sizes" 0 s.Core.Engine.db_hits;
  Alcotest.(check int) "no warm seeds" 0 s.Core.Engine.warm_starts;
  Sys.remove file

(* Warm-start x fault protocol x kill/resume: a DB-backed faulty run
   killed mid-search and resumed lands on the uninterrupted run's
   answer, and the store picks up no duplicate records along the way. *)
let test_warm_start_fault_kill_resume () =
  let faults () = Faults.make ~seed:7 ~noise:0.02 ~outlier:0.05 () in
  let protocol = { Core.Engine.default_protocol with trials = 3 } in
  let mk file =
    let db = Perfdb.load file in
    let eng =
      Core.Engine.create ~faults:(faults ()) ~protocol
        ~prefilter:Core.Engine.default_prefilter sgi
    in
    Core.Engine.set_db eng db;
    (eng, db)
  in
  let file1 = temp_db () in
  (* Populate under the same fault plan the tuned runs use. *)
  let eng, db = mk file1 in
  let _ = Core.Eco.optimize_with ~mode:fast eng Matmul.kernel ~n:24 in
  Perfdb.close db;
  let file2 = temp_db () in
  copy_file file1 file2;
  let ck = Filename.temp_file "eco_test_engine_ck" ".bin" in
  let tag = "dbtest|matmul|n=32" in
  (* Killed run against file1... *)
  let eng, db = mk file1 in
  Core.Engine.set_checkpoint eng ~every:2 ~tag ck;
  Core.Engine.set_eval_limit eng 8;
  (match Core.Eco.optimize_with ~mode:fast eng Matmul.kernel ~n:32 with
  | exception Core.Engine.Eval_limit_reached 8 -> ()
  | _ -> Alcotest.fail "expected the injected kill");
  Perfdb.close db;
  (* ...resumed to completion. *)
  let eng, db = mk file1 in
  Core.Engine.set_checkpoint eng ~every:2 ~tag ck;
  (match Core.Engine.load_checkpoint eng ~tag ck with
  | None -> Alcotest.fail "checkpoint did not load"
  | Some _ -> ());
  let r_resumed = Core.Eco.optimize_with ~mode:fast eng Matmul.kernel ~n:32 in
  Perfdb.close db;
  (* Uninterrupted reference against the pristine copy. *)
  let eng, db = mk file2 in
  let r_plain = Core.Eco.optimize_with ~mode:fast eng Matmul.kernel ~n:32 in
  Perfdb.close db;
  Alcotest.(check bool) "resumed answer = uninterrupted answer" true
    (answer r_resumed = answer r_plain);
  (* No double-appended records: every frame on file is a distinct
     live record — the measurements the killed run appended were not
     re-appended when the resumed run re-encountered those candidates.
     Exactly two summary frames exist (the populate run's n=24 and the
     resumed run's n=32; the killed run died before writing one), so
     frames = distinct measurement keys + 2. *)
  let db = Perfdb.load file1 in
  let st = Perfdb.stat db in
  Perfdb.close db;
  Alcotest.(check int) "every frame is a distinct record"
    (st.Perfdb.measurements + 2) st.Perfdb.file_records;
  Sys.remove file1;
  Sys.remove file2;
  Sys.remove ck

(* Sampling x db x checkpoint: the three persistence/estimation layers
   compose.  A sampled, DB-backed, checkpointed run killed mid-search
   and resumed must land on the uninterrupted run's answer, with no
   double-appended store frames (the resume replays candidates the dead
   run already appended) and nothing but exact records on file (sampled
   estimates never persist). *)
let test_sample_db_checkpoint_compose () =
  let mk file =
    let db = Perfdb.load file in
    let eng = Core.Engine.create sgi in
    Core.Engine.set_sampling eng (Some Memsim.Sampling.default);
    Core.Engine.set_db eng ~warm_start:false db;
    (eng, db)
  in
  let file1 = temp_db () and file2 = temp_db () in
  let ck = Filename.temp_file "eco_test_engine_ck3" ".bin" in
  let tag = "compose|matmul|n=32|sampled|exact-db" in
  (* Killed mid-search... *)
  let eng, db = mk file1 in
  Core.Engine.set_checkpoint eng ~every:2 ~tag ck;
  Core.Engine.set_eval_limit eng 10;
  (match Core.Eco.optimize_with ~mode:fast eng Matmul.kernel ~n:32 with
  | exception Core.Engine.Eval_limit_reached 10 -> ()
  | _ -> Alcotest.fail "expected the injected kill");
  Perfdb.close db;
  (* ...resumed against the same store and checkpoint. *)
  let eng, db = mk file1 in
  Core.Engine.set_checkpoint eng ~every:2 ~tag ck;
  (match Core.Engine.load_checkpoint eng ~tag ck with
  | None -> Alcotest.fail "checkpoint did not load"
  | Some _ -> ());
  let r_resumed = Core.Eco.optimize_with ~mode:fast eng Matmul.kernel ~n:32 in
  Perfdb.close db;
  (* Uninterrupted reference against a virgin store. *)
  let eng, db = mk file2 in
  let r_plain = Core.Eco.optimize_with ~mode:fast eng Matmul.kernel ~n:32 in
  Perfdb.close db;
  Alcotest.(check bool) "resumed sampled answer = uninterrupted answer" true
    (answer r_resumed = answer r_plain);
  let stat file =
    let db = Perfdb.load file in
    let st = Perfdb.stat db in
    Perfdb.close db;
    st
  in
  let st1 = stat file1 and st2 = stat file2 in
  (* every frame on file is a distinct live record: nothing was
     appended twice across the kill/resume boundary *)
  Alcotest.(check int) "no double-appended frames"
    (st1.Perfdb.measurements + st1.Perfdb.summaries)
    st1.Perfdb.file_records;
  Alcotest.(check int) "kill/resume stores the same exact records"
    st2.Perfdb.measurements st1.Perfdb.measurements;
  Sys.remove file1;
  Sys.remove file2;
  Sys.remove ck

(* Quarantined / failed candidates must never be persisted: only
   aggregated successful measurements reach the store. *)
let test_quarantine_never_persisted () =
  let file = temp_db () in
  let db = Perfdb.load file in
  let faults = Faults.make ~seed:2 ~transient:1.0 () in
  let engine = Core.Engine.create ~faults sgi in
  Core.Engine.set_db engine db;
  let v = variant () in
  let bindings = some_point engine v ~n:32 in
  let req = Core.Engine.request v ~n:32 ~mode:fast ~bindings in
  Alcotest.(check bool) "candidate quarantined" true
    (Core.Engine.evaluate engine req = None);
  (match Core.Engine.explain engine req with
  | `Failed Core.Engine.Quarantined -> ()
  | _ -> Alcotest.fail "expected a quarantined candidate");
  let st = Perfdb.stat db in
  Alcotest.(check int) "no measurement records" 0 st.Perfdb.measurements;
  Alcotest.(check int) "nothing appended" 0 st.Perfdb.appended;
  Perfdb.close db;
  (* And the file itself holds nothing to serve on reload. *)
  let db2 = Perfdb.load file in
  let st2 = Perfdb.stat db2 in
  Alcotest.(check int) "empty on reload" 0 st2.Perfdb.file_records;
  Perfdb.close db2;
  try Sys.remove file with Sys_error _ -> ()

let suite =
  [
    Alcotest.test_case "cache hit returns identical measurement" `Quick
      test_cache_hit_identical;
    Alcotest.test_case "distinct fingerprints miss" `Quick
      test_distinct_fingerprints_miss;
    Alcotest.test_case "binding order is canonicalized" `Quick
      test_binding_order_canonical;
    Alcotest.test_case "jobs=1 and jobs=4 agree on best" `Quick
      test_jobs_same_best;
    Alcotest.test_case "batch matches serial evaluation" `Quick
      test_batch_matches_serial_evaluates;
    Alcotest.test_case "telemetry counters add up" `Quick
      test_telemetry_adds_up;
    Alcotest.test_case "measure_program memoizes" `Quick
      test_measure_program_memoizes;
    Alcotest.test_case "distance below 1 is a malformed program" `Quick
      test_distance_below_one_is_malformed;
    Alcotest.test_case "empty db searches byte-identically" `Quick
      test_empty_db_byte_identical;
    Alcotest.test_case "warm start: jobs=1 = jobs=4" `Quick
      test_warm_start_jobs_identical;
    Alcotest.test_case "no-warm-start replays with zero fresh sims" `Quick
      test_no_warm_start_full_replay;
    Alcotest.test_case "no-warm-start restores the plain path" `Quick
      test_no_warm_start_restores_plain_path;
    Alcotest.test_case "warm start x faults x kill/resume" `Quick
      test_warm_start_fault_kill_resume;
    Alcotest.test_case "sampling x db x checkpoint kill/resume" `Quick
      test_sample_db_checkpoint_compose;
    Alcotest.test_case "quarantined candidates never persisted" `Quick
      test_quarantine_never_persisted;
  ]
