(* Tests for the three replay tiers of the evaluator: batched
   multi-plan replay (Hierarchy.Batch / Demand_trace.measure_plans),
   sampled simulation (Memsim.Sampling + suffix-only measurement), and
   incremental prefetch re-pricing (Demand_trace.reprice_group) — plus
   the engine-level demand-trace LRU and the exactness guarantees of
   sampled searches. *)

module Matmul = Kernels.Matmul

let sgi = Machine.sgi_r10000
let fast = Core.Executor.Budget 30_000

let variant () = List.hd (Core.Derive.variants sgi Matmul.kernel)

let some_point engine v ~n =
  match Core.Search.model_point (Core.Engine.machine engine) ~n v with
  | Some bindings -> bindings
  | None -> Alcotest.fail "no model point for test variant"

(* --- synthetic packed event streams ----------------------------------- *)

(* A deterministic pseudo-random packed stream mixing loads, stores and
   prefetches over a working set a bit larger than the L1. *)
let synthetic_events n =
  let state = ref 123456789 in
  let next () =
    state := (!state * 1103515245) + 12345;
    (!state lsr 11) land 0xFFFFFF
  in
  Array.init n (fun _ ->
      let addr = next () mod 100_000 in
      let tag =
        match next () mod 10 with
        | 0 -> Ir.Sink.tag_prefetch
        | 1 | 2 -> Ir.Sink.tag_store
        | _ -> Ir.Sink.tag_load
      in
      (addr lsl 2) lor tag)

let check_counters msg a b =
  Alcotest.(check bool) msg true (a = b)

let test_replay_many_matches_packed () =
  let events = synthetic_events 20_000 in
  let k = 3 in
  let batched = Array.init k (fun _ -> Memsim.Hierarchy.create sgi) in
  let b = Memsim.Hierarchy.Batch.create batched in
  Memsim.Hierarchy.Batch.replay_all b events ~pos:0 ~len:(Array.length events);
  Memsim.Hierarchy.Batch.sync b;
  for i = 0 to k - 1 do
    let solo = Memsim.Hierarchy.create sgi in
    Memsim.Hierarchy.replay_packed solo events ~pos:0 ~len:(Array.length events);
    check_counters
      (Printf.sprintf "state %d counters identical" i)
      (Memsim.Hierarchy.counters batched.(i))
      (Memsim.Hierarchy.counters solo)
  done

(* The SoA one-event / range feeds compose with the shared-run feed:
   interleaving them per plan is still bit-identical to a solo replay
   of the concatenated stream. *)
let test_batch_mixed_feed_matches_packed () =
  let events = synthetic_events 12_000 in
  let n = Array.length events in
  let cutA = 5_000 and cutB = 9_000 in
  let k = 4 in
  let batched = Array.init k (fun _ -> Memsim.Hierarchy.create sgi) in
  let b = Memsim.Hierarchy.Batch.create batched in
  Memsim.Hierarchy.Batch.replay_all b events ~pos:0 ~len:cutA;
  for i = 0 to k - 1 do
    for e = cutA to cutB - 1 do
      ignore (Memsim.Hierarchy.Batch.replay_one b i events.(e))
    done
  done;
  for i = 0 to k - 1 do
    Memsim.Hierarchy.Batch.replay_range b i events ~pos:cutB ~len:(n - cutB)
  done;
  Memsim.Hierarchy.Batch.sync b;
  for i = 0 to k - 1 do
    let solo = Memsim.Hierarchy.create sgi in
    Memsim.Hierarchy.replay_packed solo events ~pos:0 ~len:n;
    check_counters
      (Printf.sprintf "mixed feed state %d counters identical" i)
      (Memsim.Hierarchy.counters batched.(i))
      (Memsim.Hierarchy.counters solo)
  done

(* The K=1 batch fed one event at a time — the repricer's walk — is a
   solo replay. *)
let test_replay_event_matches_packed () =
  let events = synthetic_events 5_000 in
  let a = Memsim.Hierarchy.create sgi in
  let b = Memsim.Hierarchy.create sgi in
  Memsim.Hierarchy.replay_packed a events ~pos:0 ~len:(Array.length events);
  let bb = Memsim.Hierarchy.Batch.create [| b |] in
  Array.iter (fun v -> ignore (Memsim.Hierarchy.Batch.replay_one bb 0 v)) events;
  Memsim.Hierarchy.Batch.sync bb;
  check_counters "event-at-a-time counters identical"
    (Memsim.Hierarchy.counters a) (Memsim.Hierarchy.counters b)

let test_warm_variants_agree () =
  (* Warm with each of the three entry points, then replay the same
     tail: all counters must agree (warm-up leaves identical state). *)
  let events = synthetic_events 8_000 in
  let cut = 3_000 in
  let tail h =
    Memsim.Hierarchy.reset_counters h;
    Memsim.Hierarchy.replay_packed h events ~pos:cut
      ~len:(Array.length events - cut);
    Memsim.Hierarchy.counters h
  in
  let a = Memsim.Hierarchy.create sgi in
  Memsim.Hierarchy.warm_packed a events ~pos:0 ~len:cut;
  let b = Memsim.Hierarchy.create sgi in
  let bb = Memsim.Hierarchy.Batch.create [| b |] in
  for i = 0 to cut - 1 do
    Memsim.Hierarchy.Batch.warm_one bb 0 events.(i)
  done;
  let c = Memsim.Hierarchy.create sgi in
  let bc = Memsim.Hierarchy.Batch.create [| c |] in
  Memsim.Hierarchy.Batch.warm_all bc events ~pos:0 ~len:cut;
  let ca = tail a in
  check_counters "Batch.warm_one ≡ warm_packed" ca (tail b);
  check_counters "Batch.warm_all ≡ warm_packed" ca (tail c)

(* --- the sampling state machine --------------------------------------- *)

let test_sampler_schedule () =
  let spec = { Memsim.Sampling.shrink = 1; window = 4; gap = 6; warm = 2 } in
  let s = Memsim.Sampling.sampler spec in
  (* Period: 4 measured, 4 dropped, 2 warm, repeat. *)
  let expect = [
    (Memsim.Sampling.Measure, 4);
    (Memsim.Sampling.Drop, 4);
    (Memsim.Sampling.Warm, 2);
    (Memsim.Sampling.Measure, 4);
    (Memsim.Sampling.Drop, 4);
  ] in
  List.iteri
    (fun i (action, len) ->
      let a, k = Memsim.Sampling.take s 100 in
      Alcotest.(check bool) (Printf.sprintf "phase %d action" i) true (a = action);
      Alcotest.(check int) (Printf.sprintf "phase %d length" i) len k)
    expect;
  Alcotest.(check int) "fed" 18 (Memsim.Sampling.fed s);
  Alcotest.(check int) "measured" 8 (Memsim.Sampling.measured s);
  Alcotest.(check (float 1e-9)) "factor" (18.0 /. 8.0) (Memsim.Sampling.factor s)

let test_sampler_chunking_invariant () =
  (* The classification of event [i] must not depend on chunk sizes. *)
  let spec = { Memsim.Sampling.shrink = 1; window = 7; gap = 11; warm = 3 } in
  let classify_in_chunks sizes =
    let s = Memsim.Sampling.sampler spec in
    let out = ref [] in
    List.iter
      (fun n ->
        let remaining = ref n in
        while !remaining > 0 do
          let a, k = Memsim.Sampling.take s !remaining in
          for _ = 1 to k do out := a :: !out done;
          remaining := !remaining - k
        done)
      sizes;
    List.rev !out
  in
  let ones = List.init 100 (fun _ -> 1) in
  Alcotest.(check bool) "per-event ≡ bulk" true
    (classify_in_chunks ones = classify_in_chunks [ 37; 1; 41; 21 ])

let test_sampler_gap_zero_full_replay () =
  let spec = { Memsim.Sampling.shrink = 2; window = 16; gap = 0; warm = 0 } in
  let s = Memsim.Sampling.sampler spec in
  for _ = 1 to 50 do
    let a, _ = Memsim.Sampling.take s 13 in
    Alcotest.(check bool) "always measured" true (a = Memsim.Sampling.Measure)
  done;
  Alcotest.(check (float 1e-9)) "factor 1.0" 1.0 (Memsim.Sampling.factor s)

let test_counters_extrapolate () =
  let c = Memsim.Counters.create () in
  c.Memsim.Counters.loads <- 100;
  c.Memsim.Counters.stores <- 40;
  c.Memsim.Counters.stall_cycles <- 17;
  c.Memsim.Counters.hits.(0) <- 90;
  c.Memsim.Counters.misses.(1) <- 3;
  Memsim.Counters.extrapolate c 2.5;
  Alcotest.(check int) "loads" 250 c.Memsim.Counters.loads;
  Alcotest.(check int) "stores" 100 c.Memsim.Counters.stores;
  Alcotest.(check int) "stalls rounded" 43 c.Memsim.Counters.stall_cycles;
  Alcotest.(check int) "l1 hits" 225 c.Memsim.Counters.hits.(0);
  Alcotest.(check int) "l2 misses" 8 c.Memsim.Counters.misses.(1)

(* --- sampled measurement accuracy (qcheck) ---------------------------- *)

(* Honest error envelope of the sampled estimator on random feasible
   variant points at the search's operating point (matmul n=128, budget
   200k, default spec).  The dominant error source is [shrink]: the
   steady state of a 1/8-length trace genuinely differs from the full
   budget's, so absolute cycle estimates carry large worst-case error
   (measured under the CI seed: median ~0.33, max ~1.00 relative).
   That is acceptable because estimates only STEER — the leaderboard is
   re-measured exactly and the winner polished at exact precision
   ([test_sampled_search_winner_is_exact]) — but the bound below keeps
   the envelope from silently regressing.  Tighten it if the estimator
   improves. *)
let sampled_epsilon = 1.25

(* What steering actually requires: points whose exact costs are well
   separated should usually keep their order under the estimator.
   Universal preservation is false (one inversion at 64% separation
   exists under the CI seed), so the property below bounds the
   INVERSION RATE instead; the exact confirm/polish stage absorbs the
   residual misrankings. *)
let rank_separation = 0.40
let rank_inversion_tolerance = 0.15

let random_feasible_bindings v ~n rand =
  let params =
    List.map snd v.Core.Variant.unrolls @ List.map snd v.Core.Variant.tiles
  in
  let bindings =
    List.map
      (fun p ->
        let vmax = if String.length p > 0 && p.[0] = 'u' then 6 else 64 in
        (p, 1 + QCheck.Gen.int_bound (vmax - 1) rand))
      params
  in
  if Core.Variant.feasible v ~n bindings then Some bindings else None

let epsilon_n = 128
let epsilon_mode = Core.Executor.Budget 200_000

let measure_pair v bindings =
  let program = Core.Variant.instantiate v ~bindings in
  let exact =
    Core.Executor.measure sgi Matmul.kernel ~n:epsilon_n ~mode:epsilon_mode
      program
  in
  let est =
    Core.Executor.measure ~sampling:Memsim.Sampling.default sgi Matmul.kernel
      ~n:epsilon_n ~mode:epsilon_mode program
  in
  (Core.Executor.cycles exact, Core.Executor.cycles est)

(* Seeded: the property must hold, but CI must also be reproducible. *)
let qcheck_rand () = Random.State.make [| 0x5eed |]

let test_sampled_within_epsilon () =
  let v = variant () in
  let gen = QCheck.make (fun rand -> random_feasible_bindings v ~n:epsilon_n rand) in
  let prop = function
    | None -> QCheck.assume_fail ()
    | Some bindings ->
      let ce, cs = measure_pair v bindings in
      abs_float (cs -. ce) /. ce <= sampled_epsilon
  in
  QCheck.Test.check_exn ~rand:(qcheck_rand ())
    (QCheck.Test.make ~count:25 ~name:"sampled cycle estimate within ε" gen prop)

let test_sampled_preserves_ranking () =
  let v = variant () in
  let rand = qcheck_rand () in
  let separated = ref 0 in
  let inverted = ref 0 in
  for _ = 1 to 24 do
    match
      ( random_feasible_bindings v ~n:epsilon_n rand,
        random_feasible_bindings v ~n:epsilon_n rand )
    with
    | Some a, Some b ->
      let cea, csa = measure_pair v a in
      let ceb, csb = measure_pair v b in
      (* Only pairs the search could actually confuse matter: ignore
         near-ties, count inversions among separated pairs. *)
      if abs_float (cea -. ceb) /. Float.min cea ceb >= rank_separation then begin
        incr separated;
        if (cea < ceb) <> (csa < csb) then incr inverted
      end
    | _ -> ()
  done;
  Alcotest.(check bool) "enough separated pairs sampled" true (!separated >= 8);
  Alcotest.(check bool)
    (Printf.sprintf "inversion rate %d/%d within tolerance" !inverted
       !separated)
    true
    (float_of_int !inverted
    <= rank_inversion_tolerance *. float_of_int !separated)

let test_sampled_deterministic () =
  let v = variant () in
  let bindings = some_point (Core.Engine.create sgi) v ~n:48 in
  let program = Core.Variant.instantiate v ~bindings in
  let m1 =
    Core.Executor.measure ~sampling:Memsim.Sampling.default sgi Matmul.kernel
      ~n:48 ~mode:fast program
  in
  let m2 =
    Core.Executor.measure ~sampling:Memsim.Sampling.default sgi Matmul.kernel
      ~n:48 ~mode:fast program
  in
  Alcotest.(check bool) "identical cycles" true
    (Core.Executor.cycles m1 = Core.Executor.cycles m2)

(* --- batched multi-plan replay vs per-plan synthesis ------------------ *)

let capture_for bindings v ~n =
  let program = Core.Variant.instantiate v ~bindings in
  Core.Demand_trace.capture sgi Matmul.kernel ~n ~mode:fast program

let unbatched_measure ?sampling dt plan =
  let buf = Ir.Vm.Buf.create ~capacity:(1 lsl 16) () in
  let cut = Core.Demand_trace.synthesize dt ~plan ~into:buf in
  Core.Executor.measure_from_trace ?sampling sgi Matmul.kernel ~n:48
    ~stats:(Core.Demand_trace.stats dt)
    ~events:(Ir.Vm.Buf.data buf)
    ~n_events:(Ir.Vm.Buf.length buf) ~cut

let sweep_plans = [| [ ("a", 2) ]; [ ("a", 4) ]; [ ("a", 8) ]; [ ("a", 16) ] |]

let test_batched_matches_unbatched_exact () =
  let v = variant () in
  let bindings = some_point (Core.Engine.create sgi) v ~n:48 in
  let dt = capture_for bindings v ~n:48 in
  let batched =
    Core.Demand_trace.measure_plans sgi Matmul.kernel ~n:48 dt
      ~plans:sweep_plans
  in
  Array.iteri
    (fun i plan ->
      let solo = unbatched_measure dt plan in
      Alcotest.(check bool)
        (Printf.sprintf "plan %d cycles bit-identical" i)
        true
        (Core.Executor.cycles batched.(i) = Core.Executor.cycles solo))
    sweep_plans

let test_batched_matches_unbatched_sampled () =
  let sampling = Memsim.Sampling.default in
  let v = variant () in
  let bindings = some_point (Core.Engine.create sgi) v ~n:48 in
  let program = Core.Variant.instantiate v ~bindings in
  (* The trace must be captured at the sampled (shrunken) budget, as the
     engine does. *)
  let dt =
    Core.Demand_trace.capture sgi Matmul.kernel ~n:48
      ~mode:(Core.Executor.effective_mode (Some sampling) fast)
      program
  in
  let batched =
    Core.Demand_trace.measure_plans ~sampling sgi Matmul.kernel ~n:48 dt
      ~plans:sweep_plans
  in
  Array.iteri
    (fun i plan ->
      let solo = unbatched_measure ~sampling dt plan in
      Alcotest.(check bool)
        (Printf.sprintf "sampled plan %d estimate bit-identical" i)
        true
        (Core.Executor.cycles batched.(i) = Core.Executor.cycles solo))
    sweep_plans

(* --- incremental re-pricing ------------------------------------------- *)

let test_reprice_group_base_and_best_exact () =
  let v = variant () in
  let bindings = some_point (Core.Engine.create sgi) v ~n:48 in
  let dt = capture_for bindings v ~n:48 in
  match
    Core.Demand_trace.reprice_group sgi Matmul.kernel ~n:48 dt
      ~plans:sweep_plans
  with
  | None -> Alcotest.fail "single-array sweep should be repriceable"
  | Some r ->
    let k = Array.length sweep_plans in
    let measured =
      Array.fold_left
        (fun acc m -> if m <> None then acc + 1 else acc)
        0 r.Core.Demand_trace.rp_measurements
    in
    Alcotest.(check int) "estimated = k - measured"
      (k - measured) r.Core.Demand_trace.rp_estimated;
    Alcotest.(check bool) "at most two real measurements" true (measured <= 2);
    (* Every real measurement must be bit-identical to the unbatched
       per-plan path: committed numbers never come from the model. *)
    Array.iteri
      (fun i m ->
        match m with
        | None -> ()
        | Some m ->
          let solo = unbatched_measure dt sweep_plans.(i) in
          Alcotest.(check bool)
            (Printf.sprintf "measured plan %d exact" i)
            true
            (Core.Executor.cycles m = Core.Executor.cycles solo))
      r.Core.Demand_trace.rp_measurements

(* Multi-array distance variation takes the joint slack path: every
   varying array gets its own slack bucket, siblings are priced under
   the jointly shifted slacks, and the group no longer falls back to a
   full multi-plan replay. *)
let test_reprice_joint_multi_array () =
  let v = variant () in
  let bindings = some_point (Core.Engine.create sgi) v ~n:48 in
  let dt = capture_for bindings v ~n:48 in
  let plans =
    [|
      [ ("a", 2); ("b", 2) ];
      [ ("a", 4); ("b", 4) ];
      [ ("a", 8); ("b", 2) ];
      [ ("a", 2); ("b", 8) ];
    |]
  in
  match Core.Demand_trace.reprice_group sgi Matmul.kernel ~n:48 dt ~plans with
  | None -> Alcotest.fail "joint multi-array sweep should be repriceable"
  | Some r ->
    Alcotest.(check bool) "joint path taken" true r.Core.Demand_trace.rp_joint;
    let measured =
      Array.fold_left
        (fun acc m -> if m <> None then acc + 1 else acc)
        0 r.Core.Demand_trace.rp_measurements
    in
    Alcotest.(check int) "estimated = k - measured"
      (Array.length plans - measured)
      r.Core.Demand_trace.rp_estimated;
    Alcotest.(check bool) "at most two real measurements" true (measured <= 2);
    Array.iteri
      (fun i m ->
        match m with
        | None -> ()
        | Some m ->
          let solo = unbatched_measure dt plans.(i) in
          Alcotest.(check bool)
            (Printf.sprintf "measured plan %d exact" i)
            true
            (Core.Executor.cycles m = Core.Executor.cycles solo))
      r.Core.Demand_trace.rp_measurements

(* Fallback survives for genuinely unanalyzable groups: plans that do
   not all bind the same array list cannot share slack buckets. *)
let test_reprice_rejects_differing_array_lists () =
  let v = variant () in
  let bindings = some_point (Core.Engine.create sgi) v ~n:48 in
  let dt = capture_for bindings v ~n:48 in
  let plans = [| [ ("a", 2) ]; [ ("b", 2) ] |] in
  Alcotest.(check bool) "differing array lists fall back" true
    (Core.Demand_trace.reprice_group sgi Matmul.kernel ~n:48 dt ~plans = None)

(* Honest quality bound of the joint slack model on random multi-array
   sweep groups: the plan the repricer chooses (the argmin of its
   estimates, re-measured exactly) must be within the group-degradation
   envelope of the true best plan — the same <=2% budget the jacobi3d
   acceptance gate enforces end-to-end.  The estimates themselves never
   leave the repricer, so the choice they steer is the testable
   surface. *)
let joint_epsilon = 0.02

let test_joint_reprice_within_epsilon () =
  let v = variant () in
  let bindings = some_point (Core.Engine.create sgi) v ~n:48 in
  let dt = capture_for bindings v ~n:48 in
  let gen =
    QCheck.make (fun rand ->
        Array.init 6 (fun _ ->
            [
              ("a", 1 + QCheck.Gen.int_bound 31 rand);
              ("b", 1 + QCheck.Gen.int_bound 31 rand);
            ]))
  in
  let prop plans =
    match Core.Demand_trace.reprice_group sgi Matmul.kernel ~n:48 dt ~plans with
    | None -> QCheck.assume_fail ()
    | Some r ->
      (* Chosen plan: the best (by exact cycles) among the real
         measurements — the search commits only those. *)
      let chosen =
        Array.fold_left
          (fun acc m ->
            match (m, acc) with
            | Some m, Some c
              when Core.Executor.cycles c <= Core.Executor.cycles m ->
              acc
            | Some m, _ -> Some m
            | None, _ -> acc)
          None r.Core.Demand_trace.rp_measurements
      in
      let truth =
        Array.fold_left
          (fun acc plan ->
            let c = Core.Executor.cycles (unbatched_measure dt plan) in
            Float.min acc c)
          infinity plans
      in
      (match chosen with
      | None -> false
      | Some m ->
        Core.Executor.cycles m <= (1.0 +. joint_epsilon) *. truth)
      (* and every real measurement stays bit-exact *)
      && Array.for_all2
           (fun m plan ->
             match m with
             | None -> true
             | Some m ->
               Core.Executor.cycles m
               = Core.Executor.cycles (unbatched_measure dt plan))
           r.Core.Demand_trace.rp_measurements plans
  in
  QCheck.Test.check_exn ~rand:(qcheck_rand ())
    (QCheck.Test.make ~count:20
       ~name:"joint reprice chooses within ε of true best" gen prop)

(* Regression pin: the jacobi3d thrash case.  At n=64 a full plane of
   the 3-D stencil equals the 32 KB L1, so every prefetch on the main
   array is wasted (evicted before its first demand use).  The old
   single-array repricer bailed out ("no slack samples") and fell back
   to a full K-plan replay; wasted first uses are distance-invariant
   evidence, so the group must re-price. *)
let test_jacobi3d_thrash_group_reprices () =
  let kernel = Kernels.Jacobi3d.kernel in
  let n = 64 in
  let v = List.hd (Core.Derive.variants sgi kernel) in
  let bindings =
    match Core.Search.model_point sgi ~n v with
    | Some b -> b
    | None -> Alcotest.fail "no model point for jacobi3d"
  in
  let program = Core.Variant.instantiate v ~bindings in
  let dt = Core.Demand_trace.capture sgi kernel ~n ~mode:fast program in
  let arr =
    (List.hd (Ir.Program.heap_arrays (Core.Demand_trace.program dt)))
      .Ir.Decl.name
  in
  let plans = Array.init 8 (fun i -> [ (arr, 1 + (2 * i)) ]) in
  match Core.Demand_trace.reprice_group sgi kernel ~n dt ~plans with
  | None -> Alcotest.fail "jacobi3d sweep group must re-price, not fall back"
  | Some r ->
    Alcotest.(check bool) "most plans priced without replay" true
      (r.Core.Demand_trace.rp_estimated >= Array.length plans - 2)

(* --- demand-trace LRU under the entry cap ----------------------------- *)

let test_trace_lru_eviction () =
  let engine = Core.Engine.create sgi in
  let v = variant () in
  let base = some_point engine v ~n:48 in
  (* Distinct tile bindings → distinct trace keys.  ti is the outermost
     tile parameter of the matmul variant. *)
  let point i =
    List.map
      (fun (k, x) -> if k = "ti" then (k, max 1 (x - i)) else (k, x))
      base
  in
  (* A batched pair of plans at one bindings point forms a sweep group;
     the group captures (or reuses) that point's demand trace.
     Single-shot evaluations never fill — captures only pay when a
     multi-plan group amortizes them. *)
  let sweep bindings d1 d2 =
    match
      Core.Engine.evaluate_batch engine
        [
          Core.Engine.request v ~n:48 ~mode:fast ~bindings
            ~prefetch:[ ("a", d1) ];
          Core.Engine.request v ~n:48 ~mode:fast ~bindings
            ~prefetch:[ ("a", d2) ];
        ]
    with
    | [ Some a; Some _ ] -> a.Core.Engine.measurement
    | _ -> Alcotest.fail "batch evaluation failed"
  in
  let distinct = 10 in
  (* > max_trace_entries = 8 *)
  for i = 0 to distinct - 1 do
    ignore (sweep (point i) 2 4)
  done;
  let s1 = Core.Engine.stats engine in
  Alcotest.(check int) "one fill per distinct binding" distinct
    s1.Core.Engine.trace_fills;
  (* New distances on a recent binding reuse its cached trace. *)
  ignore (sweep (point (distinct - 1)) 6 8);
  let s2 = Core.Engine.stats engine in
  Alcotest.(check int) "recent binding hits" (s1.Core.Engine.trace_hits + 1)
    s2.Core.Engine.trace_hits;
  Alcotest.(check int) "no new fill" s1.Core.Engine.trace_fills
    s2.Core.Engine.trace_fills;
  (* The oldest binding was evicted: a new sweep there re-captures, and
     the re-captured trace yields a bit-identical measurement to a
     fresh engine's direct (trace-free) evaluation of the same plan. *)
  let m = sweep (point 0) 6 8 in
  let s3 = Core.Engine.stats engine in
  Alcotest.(check int) "evicted binding refills"
    (s2.Core.Engine.trace_fills + 1) s3.Core.Engine.trace_fills;
  let fresh_engine = Core.Engine.create sgi in
  let m' =
    match
      Core.Engine.evaluate fresh_engine
        (Core.Engine.request v ~n:48 ~mode:fast ~bindings:(point 0)
           ~prefetch:[ ("a", 6) ])
    with
    | Some ev -> ev.Core.Engine.measurement
    | None -> Alcotest.fail "fresh evaluation failed"
  in
  Alcotest.(check bool) "identical after eviction" true
    (Core.Executor.cycles m = Core.Executor.cycles m')

(* --- engine/search level guarantees ----------------------------------- *)

let optimize ?sampling ?(incremental = false) ?(jobs = 1) () =
  let engine = Core.Engine.create ~jobs sgi in
  Core.Engine.set_sampling engine sampling;
  Core.Engine.set_incremental engine incremental;
  let r = Core.Eco.optimize_with ~mode:fast engine Matmul.kernel ~n:48 in
  (r, Core.Engine.stats engine)

let test_sampled_search_jobs_deterministic () =
  let a, _ =
    optimize ~sampling:Memsim.Sampling.default ~incremental:true ~jobs:1 ()
  in
  let b, _ =
    optimize ~sampling:Memsim.Sampling.default ~incremental:true ~jobs:3 ()
  in
  Alcotest.(check bool) "jobs-independent winner" true
    (Core.Executor.cycles a.Core.Eco.measurement
    = Core.Executor.cycles b.Core.Eco.measurement)

let test_sampled_search_winner_is_exact () =
  let r, stats = optimize ~sampling:Memsim.Sampling.default () in
  Alcotest.(check bool) "estimates were used" true (stats.Core.Engine.sampled > 0);
  (* The committed measurement must equal an exact re-measurement of the
     winning point — never an extrapolated estimate. *)
  let program = r.Core.Eco.program in
  let exact = Core.Executor.measure sgi Matmul.kernel ~n:48 ~mode:fast program in
  Alcotest.(check bool) "winner measured exactly" true
    (Core.Executor.cycles r.Core.Eco.measurement = Core.Executor.cycles exact)

let test_incremental_repricing_engages () =
  let r, stats = optimize ~incremental:true () in
  Alcotest.(check bool) "some candidates repriced" true
    (stats.Core.Engine.repriced > 0);
  Alcotest.(check bool) "sane winner" true
    (r.Core.Eco.measurement.Core.Executor.mflops > 0.0)

let suite =
  [
    Alcotest.test_case "Batch.replay_all ≡ K× replay_packed" `Quick
      test_replay_many_matches_packed;
    Alcotest.test_case "Batch mixed feeds ≡ replay_packed" `Quick
      test_batch_mixed_feed_matches_packed;
    Alcotest.test_case "replay_event ≡ replay_packed" `Quick
      test_replay_event_matches_packed;
    Alcotest.test_case "warm entry points agree" `Quick test_warm_variants_agree;
    Alcotest.test_case "sampler schedule" `Quick test_sampler_schedule;
    Alcotest.test_case "sampler chunking invariant" `Quick
      test_sampler_chunking_invariant;
    Alcotest.test_case "gap=0 degenerates to full replay" `Quick
      test_sampler_gap_zero_full_replay;
    Alcotest.test_case "counters extrapolate" `Quick test_counters_extrapolate;
    Alcotest.test_case "sampled estimate within ε (qcheck)" `Slow
      test_sampled_within_epsilon;
    Alcotest.test_case "sampled ranking preserved (qcheck)" `Slow
      test_sampled_preserves_ranking;
    Alcotest.test_case "sampled estimate deterministic" `Quick
      test_sampled_deterministic;
    Alcotest.test_case "batched ≡ unbatched (exact)" `Quick
      test_batched_matches_unbatched_exact;
    Alcotest.test_case "batched ≡ unbatched (sampled)" `Quick
      test_batched_matches_unbatched_sampled;
    Alcotest.test_case "reprice: base and best measured exactly" `Quick
      test_reprice_group_base_and_best_exact;
    Alcotest.test_case "reprice joint multi-array variation" `Quick
      test_reprice_joint_multi_array;
    Alcotest.test_case "reprice rejects differing array lists" `Quick
      test_reprice_rejects_differing_array_lists;
    Alcotest.test_case "joint reprice within ε (qcheck)" `Slow
      test_joint_reprice_within_epsilon;
    Alcotest.test_case "jacobi3d thrash group re-prices" `Quick
      test_jacobi3d_thrash_group_reprices;
    Alcotest.test_case "demand-trace LRU eviction" `Slow test_trace_lru_eviction;
    Alcotest.test_case "sampled search jobs-deterministic" `Slow
      test_sampled_search_jobs_deterministic;
    Alcotest.test_case "sampled search winner is exact" `Slow
      test_sampled_search_winner_is_exact;
    Alcotest.test_case "incremental repricing engages" `Slow
      test_incremental_repricing_engages;
  ]
