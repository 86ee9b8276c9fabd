(* Tests for the replay tiers of the evaluator: the one-event step
   (Hierarchy.replay_one / warm_one) against the packed loops, per-plan
   measurement from a captured demand trace (Demand_trace.measure_plans)
   against the direct route, sampled simulation (Memsim.Sampling +
   suffix-only measurement), and incremental prefetch re-pricing
   (Demand_trace.reprice_group) — plus the engine-level demand-trace
   LRU and the exactness guarantees of sampled searches. *)

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

(* The replay kernels specialise on associativity (direct-mapped,
   two-way, wider) and on depth, so every equivalence below runs on
   every machine: direct-mapped and 4-way levels (sun, generic), a
   16- and 20-entry TLB (generic, mini) and three 8- and 16-way levels
   (modern). *)
let on_every_machine f =
  List.iter (fun m -> f m (m.Machine.name ^ ": ")) Machine.all

(* One hierarchy fed through the one-event step between two packed
   runs is bit-identical to a solo replay of the whole stream. *)
let test_batch_mixed_feed_matches_packed () =
  let events = synthetic_events 12_000 in
  let n = Array.length events in
  let cutA = 5_000 and cutB = 9_000 in
  on_every_machine (fun m ctx ->
      let mixed = Memsim.Hierarchy.create m in
      Memsim.Hierarchy.replay_packed mixed events ~pos:0 ~len:cutA;
      for e = cutA to cutB - 1 do
        ignore (Memsim.Hierarchy.replay_one mixed events.(e))
      done;
      Memsim.Hierarchy.replay_packed mixed events ~pos:cutB ~len:(n - cutB);
      let solo = Memsim.Hierarchy.create m in
      Memsim.Hierarchy.replay_packed solo events ~pos:0 ~len:n;
      check_counters
        (ctx ^ "mixed feed counters identical")
        (Memsim.Hierarchy.counters mixed)
        (Memsim.Hierarchy.counters solo))

(* The stream fed one event at a time — the repricer's walk — is a
   solo replay. *)
let test_replay_event_matches_packed () =
  let events = synthetic_events 5_000 in
  on_every_machine (fun m ctx ->
      let a = Memsim.Hierarchy.create m in
      let b = Memsim.Hierarchy.create m in
      Memsim.Hierarchy.replay_packed a events ~pos:0
        ~len:(Array.length events);
      Array.iter (fun v -> ignore (Memsim.Hierarchy.replay_one b v)) events;
      check_counters
        (ctx ^ "event-at-a-time counters identical")
        (Memsim.Hierarchy.counters a) (Memsim.Hierarchy.counters b))

let test_warm_variants_agree () =
  (* Warm with the packed run, event by event, and with the two
     interleaved, then replay the same tail: all counters must agree
     (warm-up leaves identical state). *)
  let events = synthetic_events 8_000 in
  let cut = 3_000 and mid = 1_200 in
  let tail h =
    Memsim.Hierarchy.reset_counters h;
    Memsim.Hierarchy.replay_packed h events ~pos:cut
      ~len:(Array.length events - cut);
    Memsim.Hierarchy.counters h
  in
  on_every_machine (fun m ctx ->
      let a = Memsim.Hierarchy.create m in
      Memsim.Hierarchy.warm_packed a events ~pos:0 ~len:cut;
      let b = Memsim.Hierarchy.create m in
      for i = 0 to cut - 1 do
        Memsim.Hierarchy.warm_one b events.(i)
      done;
      let c = Memsim.Hierarchy.create m in
      Memsim.Hierarchy.warm_packed c events ~pos:0 ~len:mid;
      for i = mid to cut - 1 do
        Memsim.Hierarchy.warm_one c events.(i)
      done;
      let ca = tail a in
      check_counters (ctx ^ "warm_one ≡ warm_packed") ca (tail b);
      check_counters (ctx ^ "warm_packed then warm_one ≡ warm_packed") ca
        (tail c))

(* --- allocation gate --------------------------------------------------- *)

(* A kernel's packed address stream with one array prefetched, so loads,
   stores and prefetches all occur. *)
let captured_events (kernel : Kernels.Kernel.t) n =
  let base = kernel.Kernels.Kernel.program in
  let program =
    match Transform.Prefetch_insert.candidates base with
    | [] -> base
    | a :: _ ->
      Transform.Prefetch_insert.apply base ~array:a ~distance:4
        ~line_elems:(Machine.line_elems sgi 0)
  in
  let trace =
    Memsim.Trace.of_program ~params:(Kernels.Kernel.params kernel n) program
  in
  Array.sub (Memsim.Trace.raw trace) 0 (Memsim.Trace.length trace)

(* Minor-heap words the feed of the first [len] events allocates;
   [prepare len] builds fresh state outside the measured region. *)
let minor_words_of prepare len =
  let feed = prepare len in
  let before = Gc.minor_words () in
  feed ();
  Gc.minor_words () -. before

(* A count, not a timing: every replay entry point allocates the same
   number of words for the first N events of a captured trace as for
   2N, on every machine (so the TLB refill, writeback and third-level
   paths run too).  The sampled entry point runs one fixed spec, so 2N
   events take twice the windows.  The incremental re-pricer walks a
   whole demand trace, so it is fed a trace captured at a budget and at
   twice that budget, exact and sampled. *)
let test_replay_allocates_nothing_per_event () =
  let traces =
    [
      ("matmul", captured_events Matmul.kernel 40);
      ("jacobi3d", captured_events Kernels.Jacobi3d.kernel 24);
    ]
  in
  let entry_points events m =
    let solo f len =
      let h = Memsim.Hierarchy.create m in
      fun () -> f h len
    in
    let sampled len =
      let h = Memsim.Hierarchy.create m in
      let sampler =
        Memsim.Sampling.sampler
          { Memsim.Sampling.shrink = 1; window = 64; gap = 128; warm = 64 }
      in
      fun () -> Memsim.Hierarchy.replay_sampled h sampler events ~pos:0 ~len
    in
    [
      ( "replay_packed",
        solo (fun h len -> Memsim.Hierarchy.replay_packed h events ~pos:0 ~len)
      );
      ( "warm_packed",
        solo (fun h len -> Memsim.Hierarchy.warm_packed h events ~pos:0 ~len)
      );
      ("replay_sampled", sampled);
      ( "replay_one",
        solo (fun h len ->
            for e = 0 to len - 1 do
              ignore (Memsim.Hierarchy.replay_one h (Array.unsafe_get events e))
            done) );
      ( "warm_one",
        solo (fun h len ->
            for e = 0 to len - 1 do
              Memsim.Hierarchy.warm_one h (Array.unsafe_get events e)
            done) );
    ]
  in
  List.iter
    (fun (kernel, events) ->
      let n = Array.length events / 2 in
      on_every_machine (fun m ctx ->
          List.iter
            (fun (name, prepare) ->
              Alcotest.(check (float 0.0))
                (Printf.sprintf "%s%s %s: words for %d events = for %d" ctx
                   kernel name (2 * n) n)
                (minor_words_of prepare n)
                (minor_words_of prepare (2 * n)))
            (entry_points events m)))
    traces;
  (* The re-pricer over a distance sweep of one jacobi3d point, and
     [measure_plans] over two of its plans.  Both budgets stop short of
     the full problem and both traces re-measure the same sibling, so
     the two runs do the same fixed work. *)
  let kernel = Kernels.Jacobi3d.kernel in
  let n = 32 in
  let v = List.hd (Core.Derive.variants sgi kernel) in
  let program =
    match Core.Search.model_point sgi ~n v with
    | Some bindings -> Core.Variant.instantiate v ~bindings
    | None -> Alcotest.fail "no model point for jacobi3d"
  in
  let arr = (List.hd (Ir.Program.heap_arrays program)).Ir.Decl.name in
  let plans = Array.init 4 (fun i -> [ (arr, 1 + (3 * i)) ]) in
  on_every_machine (fun m ctx ->
      List.iter
        (fun (what, sampling) ->
          (* Words [walk] allocates on a trace captured at [budget]. *)
          let at budget walk =
            let dt =
              Core.Demand_trace.capture m kernel ~n
                ~mode:(Core.Executor.Budget budget) program
            in
            minor_words_of (fun () () -> walk dt) ()
          in
          let outcome = ref [||] in
          let reprice dt =
            match
              Core.Demand_trace.reprice_group ?sampling m kernel ~n dt ~plans
            with
            | Some r ->
              outcome :=
                Array.map Option.is_some r.Core.Demand_trace.rp_measurements
            | None -> Alcotest.failf "%s%s: no re-pricing" ctx what
          in
          let measure dt =
            ignore
              (Core.Demand_trace.measure_plans ?sampling m kernel ~n dt
                 ~plans:(Array.sub plans 0 2))
          in
          (* The first walk on a machine fills its hierarchy pool. *)
          ignore (at 30_000 reprice);
          let w1 = at 30_000 reprice in
          let o1 = !outcome in
          let w2 = at 60_000 reprice in
          Alcotest.(check (array bool))
            (Printf.sprintf "%s%s reprice_group: same plans measured" ctx what)
            o1 !outcome;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s%s reprice_group: words at 2x the budget" ctx
               what)
            w1 w2;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s%s measure_plans: words at 2x the budget" ctx
               what)
            (at 30_000 measure) (at 60_000 measure))
        [
          ("", None);
          ( " sampled",
            Some
              {
                Memsim.Sampling.shrink = 1;
                window = 1024;
                gap = 1024;
                warm = 256;
              } );
        ])

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
      let k = Memsim.Sampling.take s 100 in
      let a = Memsim.Sampling.action s in
      Alcotest.(check bool) (Printf.sprintf "phase %d action" i) true (a = action);
      Alcotest.(check int) (Printf.sprintf "phase %d length" i) len k)
    expect;
  Alcotest.(check int) "fed" 18 (Memsim.Sampling.fed s);
  Alcotest.(check int) "measured" 8 (Memsim.Sampling.measured s);
  Alcotest.(check int) "replayed" 10 (Memsim.Sampling.replayed s);
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
          let k = Memsim.Sampling.take s !remaining in
          let a = Memsim.Sampling.action s in
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
    ignore (Memsim.Sampling.take s 13);
    Alcotest.(check bool) "always measured" true
      (Memsim.Sampling.action s = Memsim.Sampling.Measure)
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

(* --- per-plan measurement from a trace vs the direct route ------------- *)

let capture_for bindings v ~n =
  let program = Core.Variant.instantiate v ~bindings in
  Core.Demand_trace.capture sgi Matmul.kernel ~n ~mode:fast program

(* The per-plan reference: one plan's synthesized stream, measured. *)
let reference_measure ?sampling ?work ?(kernel = Matmul.kernel) ?(n = 48) dt
    plan =
  let buf = Ir.Vm.Buf.create ~capacity:(1 lsl 16) () in
  let cut = Core.Demand_trace.synthesize dt ~plan ~into:buf in
  Core.Executor.measure_from_trace ?sampling ?work sgi kernel ~n
    ~stats:(Core.Demand_trace.stats dt)
    ~events:(Ir.Vm.Buf.data buf)
    ~n_events:(Ir.Vm.Buf.length buf) ~cut

let sweep_plans = [| [ ("a", 2) ]; [ ("a", 4) ]; [ ("a", 8) ]; [ ("a", 16) ] |]

(* Each plan of a distance sweep measured from the captured demand trace
   ([measure_plans]) equals [Executor.measure] of that plan's
   transformed program, counters and cycles, on a matmul and a jacobi3d
   point.  A sampled trace is captured at the spec's shrunken budget, as
   the engine captures it. *)
let check_plans_match_direct ?sampling () =
  List.iter
    (fun ((kernel : Kernels.Kernel.t), n) ->
      let engine = Core.Engine.create sgi in
      let v = List.hd (Core.Derive.variants sgi kernel) in
      let bindings =
        match Core.Search.model_point sgi ~n v with
        | Some b -> b
        | None ->
          Alcotest.failf "no model point for %s" kernel.Kernels.Kernel.name
      in
      let program = Core.Variant.instantiate v ~bindings in
      let dt =
        Core.Demand_trace.capture sgi kernel ~n
          ~mode:(Core.Executor.effective_mode sampling fast)
          program
      in
      let arr = (List.hd (Ir.Program.heap_arrays program)).Ir.Decl.name in
      let plans = Array.map (fun d -> [ (arr, d) ]) [| 2; 4; 8; 16 |] in
      let measured =
        Core.Demand_trace.measure_plans ?sampling sgi kernel ~n dt ~plans
      in
      Array.iteri
        (fun i plan ->
          let direct =
            match
              Core.Engine.build engine
                (Core.Engine.request v ~n ~mode:fast ~bindings ~prefetch:plan)
            with
            | Some p ->
              Core.Executor.measure ?sampling sgi kernel ~n ~mode:fast p
            | None -> Alcotest.fail "prefetch plan does not build"
          in
          let ctx =
            Printf.sprintf "%s %s=%d" kernel.Kernels.Kernel.name arr
              (snd (List.hd plan))
          in
          check_counters (ctx ^ " counters identical")
            measured.(i).Core.Executor.counters direct.Core.Executor.counters;
          Alcotest.(check bool) (ctx ^ " cycles identical") true
            (Core.Executor.cycles measured.(i) = Core.Executor.cycles direct))
        plans)
    [ (Matmul.kernel, 48); (Kernels.Jacobi3d.kernel, 24) ]

let test_batched_matches_unbatched_exact () = check_plans_match_direct ()

let test_batched_matches_unbatched_sampled () =
  check_plans_match_direct ~sampling:Memsim.Sampling.default ()

(* --- incremental re-pricing ------------------------------------------- *)

(* An exact distance sweep re-prices: the re-pricer takes at most two
   real measurements (the base plan and the estimated-best sibling),
   each bit-identical to the per-plan reference, and its walk replays
   no more events than those plans' own replays.  Inputs: a 4-plan
   sweep at matmul n=48, and the eval bench's K=24 sweep
   ([sweep_microbench] in bench/main.ml) on each bench kernel: the
   first variant's model point, its first heap array at distances
   1-24, budget 200000.  Per-plan measurement of a K=24 group replays
   12x (24x on jacobi3d) the events its re-pricing does. *)
let check_reprice_base_and_best ~ctx (kernel : Kernels.Kernel.t) ~n dt
    ~plans =
  let work = Core.Executor.work () in
  match Core.Demand_trace.reprice_group ~work sgi kernel ~n dt ~plans with
  | None -> Alcotest.failf "%s: a single-array sweep should re-price" ctx
  | Some r ->
    let k = Array.length plans in
    let measured =
      Array.fold_left
        (fun acc m -> if m <> None then acc + 1 else acc)
        0 r.Core.Demand_trace.rp_measurements
    in
    Alcotest.(check int) (ctx ^ ": estimated = k - measured")
      (k - measured) r.Core.Demand_trace.rp_estimated;
    if measured > 2 then
      Alcotest.failf "%s: %d real measurements of %d plans, at most 2 expected"
        ctx measured k;
    (* Every real measurement must be bit-identical to the per-plan
       reference: committed numbers never come from the model. *)
    let plain = Core.Executor.work () in
    Array.iteri
      (fun i m ->
        match m with
        | None -> ()
        | Some m ->
          let solo = reference_measure ~work:plain ~kernel ~n dt plans.(i) in
          let what = Printf.sprintf "%s: measured plan %d exact" ctx i in
          check_counters (what ^ " (counters)") m.Core.Executor.counters
            solo.Core.Executor.counters;
          Alcotest.(check bool) what true
            (Core.Executor.cycles m = Core.Executor.cycles solo))
      r.Core.Demand_trace.rp_measurements;
    if work.replayed_events > plain.replayed_events then
      Alcotest.failf
        "%s: the re-priced walk replays %d events, the plans it measured %d"
        ctx work.replayed_events plain.replayed_events

let test_reprice_group_base_and_best_exact () =
  let v = variant () in
  let bindings = some_point (Core.Engine.create sgi) v ~n:48 in
  check_reprice_base_and_best ~ctx:"matmul n=48" Matmul.kernel ~n:48
    (capture_for bindings v ~n:48)
    ~plans:sweep_plans;
  List.iter
    (fun ((kernel : Kernels.Kernel.t), n) ->
      let v = List.hd (Core.Derive.variants sgi kernel) in
      let bindings =
        Option.value ~default:[] (Core.Search.model_point sgi ~n v)
      in
      let dt =
        Core.Demand_trace.capture sgi kernel ~n
          ~mode:(Core.Executor.Budget 200_000)
          (Core.Variant.instantiate v ~bindings)
      in
      let arr =
        (List.hd (Ir.Program.heap_arrays (Core.Demand_trace.program dt)))
          .Ir.Decl.name
      in
      check_reprice_base_and_best
        ~ctx:(Printf.sprintf "%s n=%d K=24" kernel.Kernels.Kernel.name n)
        kernel ~n dt
        ~plans:(Array.init 24 (fun i -> [ (arr, 1 + i) ])))
    [
      (Matmul.kernel, 128);
      (Kernels.Jacobi3d.kernel, 64);
      (Kernels.Matvec.kernel, 256);
      (Kernels.Stencil2d.kernel, 128);
      (Kernels.Wavefront.kernel, 128);
    ]

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
          let solo = reference_measure dt plans.(i) in
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
            let c = Core.Executor.cycles (reference_measure dt plan) in
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
               = Core.Executor.cycles (reference_measure dt plan))
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
  (* Only the incremental re-pricer captures demand traces. *)
  let engine = Core.Engine.create sgi in
  Core.Engine.set_incremental engine true;
  let v = variant () in
  let base = some_point engine v ~n:48 in
  (* Distinct tile bindings → distinct trace keys.  ti is the outermost
     tile parameter of the matmul variant. *)
  let point i =
    List.map
      (fun (k, x) -> if k = "ti" then (k, max 1 (x - i)) else (k, x))
      base
  in
  (* A batched pair of plans at one bindings point forms a re-priced
     sweep group; the group captures (or reuses) that point's demand
     trace.  Its base plan is always measured exactly. *)
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
    | [ Some a; _ ] -> a.Core.Engine.measurement
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

let optimize ?prefilter ?sampling ?(incremental = false) () =
  let engine = Core.Engine.create ?prefilter sgi in
  Core.Engine.set_sampling engine sampling;
  Core.Engine.set_incremental engine incremental;
  let r = Core.Eco.optimize_with ~mode:fast engine Matmul.kernel ~n:48 in
  (r, Core.Engine.stats engine)

let test_sampled_search_winner_is_exact () =
  let r, stats = optimize ~sampling:Memsim.Sampling.default () in
  Alcotest.(check bool) "estimates were used" true (stats.Core.Engine.sampled > 0);
  (* The committed measurement must equal an exact re-measurement of the
     winning point — never an extrapolated estimate. *)
  let program = r.Core.Eco.program in
  let exact = Core.Executor.measure sgi Matmul.kernel ~n:48 ~mode:fast program in
  Alcotest.(check bool) "winner measured exactly" true
    (Core.Executor.cycles r.Core.Eco.measurement = Core.Executor.cycles exact)

(* The armed search ([prefilter]): its prefetch sweeps form the groups
   the re-pricer prices; the staged descent evaluates one plan at a
   time and forms none. *)
let test_incremental_repricing_engages () =
  let r, stats =
    optimize ~prefilter:Core.Engine.default_prefilter ~incremental:true ()
  in
  Alcotest.(check bool) "some candidates repriced" true
    (stats.Core.Engine.repriced > 0);
  Alcotest.(check bool) "sane winner" true
    (r.Core.Eco.measurement.Core.Executor.mflops > 0.0)

(* --- the replay tier's work, counted ----------------------------------- *)

(* A count, not a timing, at the eval-bench operating point (budget
   200000 on the five bench kernels): the [--sample --incremental]
   search, staged and armed ([--prefilter]), must generate at most
   [max_vm] VM events and replay at most [max_replayed] events.  Each
   ceiling is the count measured when it was set plus 10%; the counts
   are deterministic, so only a code change moves them, and being
   absolute they do not move with the exact search's cost.  A sampler
   that stops shrinking the trace breaks the VM ceilings of matmul,
   jacobi3d, matvec and stencil2d.  The armed ceilings are the ones
   that catch a re-pricer that always declines (its jacobi3d and
   wavefront ceilings): the staged sampled search re-prices only in
   its exact winner polish. *)
let test_sampled_work_share () =
  let mode = Core.Executor.Budget 200_000 in
  let work ?prefilter (kernel : Kernels.Kernel.t) ~n =
    let e = Core.Engine.create ?prefilter sgi in
    Core.Engine.set_sampling e (Some Memsim.Sampling.default);
    Core.Engine.set_incremental e true;
    ignore (Core.Eco.optimize_with ~mode e kernel ~n);
    let s = Core.Engine.stats e in
    (s.Core.Engine.vm_events, s.Core.Engine.replayed_events)
  in
  List.iter
    (fun ((kernel : Kernels.Kernel.t), n, ceilings) ->
      List.iter2
        (fun (search, prefilter) (max_vm, max_replayed) ->
          let name = kernel.Kernels.Kernel.name ^ " " ^ search in
          let vm, replayed = work ?prefilter kernel ~n in
          Printf.printf "%s: VM events %d (<= %d), replayed %d (<= %d)\n" name
            vm max_vm replayed max_replayed;
          Alcotest.(check bool)
            (Printf.sprintf "%s: VM events %d <= %d" name vm max_vm)
            true (vm <= max_vm);
          Alcotest.(check bool)
            (Printf.sprintf "%s: replayed events %d <= %d" name replayed
               max_replayed)
            true
            (replayed <= max_replayed))
        [ ("staged", None); ("armed", Some Core.Engine.default_prefilter) ]
        ceilings)
    [
      (* measured, staged: VM 7141147, replayed 10180833; armed: VM
         2851122, replayed 7622585 *)
      (Matmul.kernel, 128, [ (7855262, 11198917); (3136235, 8384844) ]);
      (* 6872307, 13070440; 3636651, 6860592 *)
      (Kernels.Jacobi3d.kernel, 64, [ (7559538, 14377485); (4000317, 7546652) ]);
      (* 1936971, 3452900; 1983002, 4104227 *)
      (Kernels.Matvec.kernel, 256, [ (2130669, 3798191); (2181303, 4514650) ]);
      (* 831608, 1217623; 1290537, 1833062 *)
      (Kernels.Stencil2d.kernel, 128, [ (914769, 1339386); (1419591, 2016369) ]);
      (* 303015, 589762; 360768, 537514 *)
      (Kernels.Wavefront.kernel, 128, [ (333317, 648739); (396845, 591266) ]);
    ]

let suite =
  [
    Alcotest.test_case "Batch mixed feeds ≡ replay_packed" `Quick
      test_batch_mixed_feed_matches_packed;
    Alcotest.test_case "replay_event ≡ replay_packed" `Quick
      test_replay_event_matches_packed;
    Alcotest.test_case "warm entry points agree" `Quick test_warm_variants_agree;
    Alcotest.test_case "replay allocates nothing per event" `Quick
      test_replay_allocates_nothing_per_event;
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
    Alcotest.test_case "sampled search winner is exact" `Slow
      test_sampled_search_winner_is_exact;
    Alcotest.test_case "incremental repricing engages" `Slow
      test_incremental_repricing_engages;
    Alcotest.test_case "sampled search work share bounded" `Slow
      test_sampled_work_share;
  ]
