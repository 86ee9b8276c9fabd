(* Differential tests for the bytecode fast path: the VM against the
   closure interpreter (stats, event streams, array contents), batched
   packed replay against the sink-driven hierarchy, demand-trace
   prefetch synthesis against actually transformed programs, and the
   executor/engine fast paths against the closure reference. *)

module Kernel = Kernels.Kernel
module Rng = Check.Rng
module Gen = Check.Gen
module Pipe = Check.Pipe
module Vm = Ir.Vm
module Exec = Ir.Exec

let machine = Machine.sgi_r10000

let all_kernels =
  [
    Kernels.Matmul.kernel;
    Kernels.Jacobi3d.kernel;
    Kernels.Matvec.kernel;
    Kernels.Stencil2d.kernel;
    Kernels.Wavefront.kernel;
  ]

let check_int = Alcotest.(check int)

let check_stats ctx (a : Exec.stats) (b : Exec.stats) =
  check_int (ctx ^ ": flops") a.Exec.flops b.Exec.flops;
  check_int (ctx ^ ": iterations") a.Exec.loop_iterations b.Exec.loop_iterations;
  check_int (ctx ^ ": moves") a.Exec.register_moves b.Exec.register_moves;
  check_int (ctx ^ ": spills") a.Exec.spilled_scalars b.Exec.spilled_scalars;
  Alcotest.(check bool) (ctx ^ ": completed") a.Exec.completed b.Exec.completed

let check_counters ctx (a : Memsim.Counters.t) (b : Memsim.Counters.t) =
  check_int (ctx ^ ": loads") a.Memsim.Counters.loads b.Memsim.Counters.loads;
  check_int (ctx ^ ": stores") a.Memsim.Counters.stores b.Memsim.Counters.stores;
  check_int (ctx ^ ": prefetches") a.Memsim.Counters.prefetches
    b.Memsim.Counters.prefetches;
  Alcotest.(check (array int))
    (ctx ^ ": hits") a.Memsim.Counters.hits b.Memsim.Counters.hits;
  Alcotest.(check (array int))
    (ctx ^ ": misses") a.Memsim.Counters.misses b.Memsim.Counters.misses;
  check_int (ctx ^ ": tlb misses") a.Memsim.Counters.tlb_misses
    b.Memsim.Counters.tlb_misses;
  check_int (ctx ^ ": writebacks") a.Memsim.Counters.writebacks
    b.Memsim.Counters.writebacks;
  check_int (ctx ^ ": stall cycles") a.Memsim.Counters.stall_cycles
    b.Memsim.Counters.stall_cycles;
  check_int
    (ctx ^ ": hidden cycles")
    a.Memsim.Counters.prefetch_hidden_cycles
    b.Memsim.Counters.prefetch_hidden_cycles

(* Event stream of the closure interpreter, packed the same way the VM
   packs its buffer. *)
let closure_events ?flop_budget ?register_budget ~params program =
  let trace = Memsim.Trace.create () in
  let result =
    Exec.run ~sink:(Memsim.Trace.sink trace) ?flop_budget ?register_budget
      ~params program
  in
  (result, Array.sub (Memsim.Trace.raw trace) 0 (Memsim.Trace.length trace))

let check_events ctx (expected : int array) (events : int array) n_events =
  check_int (ctx ^ ": event count") (Array.length expected) n_events;
  (* Element-wise compare without Alcotest's O(n) diff printing cost on
     the happy path. *)
  let ok = ref true in
  for i = 0 to n_events - 1 do
    if expected.(i) <> events.(i) then ok := false
  done;
  if not !ok then Alcotest.failf "%s: event streams differ" ctx

(* Run one program through the interpreter and the compute-mode VM and
   require bit-identical stats, events and array contents. *)
let differential ?(flop_budget : int option) ?register_budget ~params ctx
    program =
  let closure, expected =
    closure_events ?flop_budget ?register_budget ~params program
  in
  let vm = Vm.compile ~compute:true ?register_budget ~params program in
  let r = Vm.run ?flop_budget vm in
  check_stats ctx closure.Exec.stats r.Vm.stats;
  check_events ctx expected r.Vm.events r.Vm.n_events;
  let closure_arrays = closure.Exec.arrays in
  let vm_arrays = Vm.arrays vm in
  check_int (ctx ^ ": array count") (List.length closure_arrays)
    (List.length vm_arrays);
  List.iter2
    (fun (name_a, data_a) (name_b, data_b) ->
      Alcotest.(check string) (ctx ^ ": array name") name_a name_b;
      if data_a <> data_b then
        Alcotest.failf "%s: array %s contents differ" ctx name_a)
    closure_arrays vm_arrays;
  (* The address-only mode must emit the same stream and stats while
     allocating no float storage. *)
  let fast = Vm.compile ?register_budget ~params program in
  let rf = Vm.run ?flop_budget fast in
  check_stats (ctx ^ " [fast]") closure.Exec.stats rf.Vm.stats;
  check_events (ctx ^ " [fast]") expected rf.Vm.events rf.Vm.n_events

(* --- kernels x phase-1 variants x sampled points --- *)

let test_variants_differential () =
  List.iter
    (fun (kernel : Kernel.t) ->
      let rng = Rng.of_list [ Rng.hash_string kernel.Kernel.name; 1 ] in
      List.iter
        (fun v ->
          let n = 2 + Rng.int rng 14 in
          match Gen.point rng ~n v with
          | None -> ()
          | Some bindings -> (
            match Core.Variant.instantiate v ~bindings with
            | program ->
              let params = Kernel.params kernel n in
              let ctx = kernel.Kernel.name ^ "/" ^ v.Core.Variant.name in
              differential ~params ctx program;
              differential ~flop_budget:(max 1 (kernel.Kernel.flops n / 3))
                ~params (ctx ^ " budget") program
            | exception Invalid_argument _ -> ()))
        (Core.Derive.variants machine kernel))
    all_kernels

(* --- kernels x random transformation pipelines --- *)

let test_random_pipelines_differential () =
  List.iter
    (fun (kernel : Kernel.t) ->
      for trial = 0 to 7 do
        let rng =
          Rng.of_list [ Rng.hash_string kernel.Kernel.name; 77; trial ]
        in
        let n = Gen.size rng kernel in
        match Pipe.apply kernel (Gen.pipeline rng ~n kernel) with
        | exception Invalid_argument _ -> ()
        | program ->
          let params = Kernel.params kernel n in
          let ctx = Printf.sprintf "%s pipe %d" kernel.Kernel.name trial in
          differential ~params ~register_budget:8 ctx program
      done)
    all_kernels

(* --- warm-up cut position --- *)

(* The VM's [cut_events] must equal the event count of a separate
   closure run at the warm-up budget: that is precisely the prefix the
   closure path replays (and discards) before measuring. *)
let test_warm_cut_matches_closure_prefix () =
  let kernel = Kernels.Matmul.kernel in
  let n = 20 in
  let params = Kernel.params kernel n in
  let v = List.hd (Core.Derive.variants machine kernel) in
  let rng = Rng.of_list [ 5 ] in
  match Gen.point rng ~n v with
  | None -> Alcotest.fail "no point for matmul variant"
  | Some bindings ->
    let program = Core.Variant.instantiate v ~bindings in
    let budget = kernel.Kernel.flops n / 2 in
    let warm = max 1 (budget / 2) in
    let _, warm_events =
      closure_events ~flop_budget:warm ~params program
    in
    let vm = Vm.compile ~params program in
    let r = Vm.run ~flop_budget:budget ~warm_budget:warm vm in
    check_int "cut at warm prefix" (Array.length warm_events) r.Vm.cut_events;
    let full = Vm.run ~flop_budget:budget vm in
    check_int "full stream unaffected by warm cut" full.Vm.n_events
      r.Vm.n_events

(* --- leaf loops: the cut and the halt inside an iteration --- *)

(* Every phase-1 variant of every kernel, at every flop budget from 0 to
   past the whole problem, so the halt (flop budget) and the warm-up cut
   land at every statement of every leaf iteration.  The address-only
   VM runs each innermost loop as one leaf instruction: its events,
   stats and cut must be the closure interpreter's, and its marks and
   mark cut those of the general loop (the compute-mode VM).  Demand
   traces captured at those budgets must still synthesize the
   prefetch-transformed program's stream and cut. *)
let test_leaf_cuts () =
  let register_budget = Machine.available_registers machine in
  let line_elems = Machine.line_elems machine 0 in
  let marks (r : Vm.run) = Array.sub r.Vm.marks 0 r.Vm.n_marks in
  let events ~flop_budget program ~params =
    snd (closure_events ~flop_budget ~register_budget ~params program)
  in
  List.iter
    (fun ((kernel : Kernel.t), n) ->
      let params = Kernel.params kernel n in
      let total = kernel.Kernel.flops n in
      let rng = Rng.of_list [ Rng.hash_string kernel.Kernel.name; 19 ] in
      List.iter
        (fun v ->
          match Gen.point rng ~n v with
          | None -> ()
          | Some bindings -> (
            match Core.Variant.instantiate v ~bindings with
            | exception Invalid_argument _ -> ()
            | program ->
              let name = kernel.Kernel.name ^ "/" ^ v.Core.Variant.name in
              let leaf =
                Vm.compile ~marks:true ~register_budget ~params program
              in
              let general =
                Vm.compile ~compute:true ~marks:true ~register_budget ~params
                  program
              in
              (* Closure event count at each budget: the halt's stream
                 length there, and the cut position of that warm-up. *)
              let prefix = Array.make (total + 2) 0 in
              for b = 0 to total + 1 do
                let ctx = Printf.sprintf "%s budget %d" name b in
                let closure, expected =
                  closure_events ~flop_budget:b ~register_budget ~params program
                in
                prefix.(b) <- Array.length expected;
                let r = Vm.run ~flop_budget:b leaf in
                check_stats ctx closure.Exec.stats r.Vm.stats;
                check_events ctx expected r.Vm.events r.Vm.n_events;
                Alcotest.(check (array int))
                  (ctx ^ ": marks") (marks (Vm.run ~flop_budget:b general))
                  (marks r);
                let w = Vm.run ~warm_budget:b leaf in
                let gw = Vm.run ~warm_budget:b general in
                check_int (ctx ^ ": warm cut") prefix.(b) w.Vm.cut_events;
                check_int (ctx ^ ": warm mark cut") gw.Vm.cut_marks
                  w.Vm.cut_marks;
                Alcotest.(check (array int))
                  (ctx ^ ": warm marks") (marks gw) (marks w)
              done;
              match Transform.Prefetch_insert.candidates program with
              | [] -> ()
              | a :: _ ->
                let transformed =
                  Transform.Prefetch_insert.apply program ~array:a
                    ~distance:2 ~line_elems
                in
                (* The transformed program's closure event count at each
                   budget; a warm-up is at most its budget. *)
                let tprefix = Array.make (total + 2) 0 in
                let buf = Vm.Buf.create () in
                for b = 1 to total + 1 do
                  let ctx = Printf.sprintf "%s synth %s:2 budget %d" name a b in
                  let expected = events ~flop_budget:b transformed ~params in
                  tprefix.(b) <- Array.length expected;
                  let mode = Core.Executor.Budget b in
                  let dt =
                    Core.Demand_trace.capture machine kernel ~n ~mode program
                  in
                  let cut =
                    Core.Demand_trace.synthesize dt ~plan:[ (a, 2) ] ~into:buf
                  in
                  check_events ctx expected (Vm.Buf.data buf)
                    (Vm.Buf.length buf);
                  check_int (ctx ^ ": cut")
                    (match Core.Executor.trace_budgets kernel ~n mode with
                    | _, Some w -> tprefix.(w)
                    | _, None -> -1)
                    cut
                done))
        (Core.Derive.variants machine kernel))
    [
      (Kernels.Matmul.kernel, 5);
      (Kernels.Jacobi3d.kernel, 5);
      (Kernels.Matvec.kernel, 10);
      (Kernels.Stencil2d.kernel, 9);
      (Kernels.Wavefront.kernel, 12);
    ]

(* --- packed replay vs the sink-driven hierarchy --- *)

(* Every machine: the replay kernels specialise on associativity and
   depth (direct-mapped, 2-, 4-, 8- and 16-way levels; three levels on
   modern). *)
let replay_machines = Machine.all

let test_replay_packed_vs_sink () =
  let kernel = Kernels.Stencil2d.kernel in
  let n = 24 in
  let params = Kernel.params kernel n in
  let base = kernel.Kernel.program in
  let prefetched =
    match Transform.Prefetch_insert.candidates base with
    | [] -> base
    | a :: _ ->
      Transform.Prefetch_insert.apply base ~array:a ~distance:4
        ~line_elems:(Machine.line_elems machine 0)
  in
  List.iter
    (fun program ->
      let trace = Memsim.Trace.of_program ~params program in
      List.iter
        (fun m ->
          let by_sink = Memsim.Hierarchy.create m in
          Memsim.Trace.replay trace (Memsim.Hierarchy.sink by_sink);
          let packed = Memsim.Hierarchy.create m in
          Memsim.Trace.replay_packed trace packed;
          check_counters "replay_packed vs sink"
            (Memsim.Hierarchy.counters by_sink)
            (Memsim.Hierarchy.counters packed);
          check_int "now" (Memsim.Hierarchy.now by_sink)
            (Memsim.Hierarchy.now packed))
        replay_machines)
    [ base; prefetched ]

(* --- demand-trace prefetch synthesis --- *)

(* Synthesized streams must match executing the transformed program,
   for single- and multi-array plans, and must reproduce its warm cut. *)
let test_prefetch_synthesis () =
  let line = Machine.line_elems machine 0 in
  let register_budget = Machine.available_registers machine in
  List.iter
    (fun ((kernel : Kernel.t), n) ->
      let params = Kernel.params kernel n in
      let program = kernel.Kernel.program in
      let arrays = Transform.Prefetch_insert.candidates program in
      if arrays = [] then Alcotest.failf "%s: no candidates" kernel.Kernel.name;
      let plans =
        [
          [ (List.hd arrays, 2) ];
          List.sort compare (List.mapi (fun i a -> (a, 2 + i)) arrays);
        ]
      in
      List.iter
        (fun mode ->
          let dt = Core.Demand_trace.capture machine kernel ~n ~mode program in
          List.iter
            (fun plan ->
              let transformed =
                List.fold_left
                  (fun p (array, distance) ->
                    Transform.Prefetch_insert.apply p ~array ~distance
                      ~line_elems:line)
                  program
                  (List.sort compare plan)
              in
              let vm = Vm.compile ~register_budget ~params transformed in
              let flop_budget, warm_budget =
                Core.Executor.trace_budgets kernel ~n mode
              in
              let r = Vm.run ?flop_budget ?warm_budget vm in
              (* Prefetch statements leave execution statistics alone, so
                 the captured stats serve every plan. *)
              check_stats
                (kernel.Kernel.name ^ ": trace stats")
                r.Vm.stats
                (Core.Demand_trace.stats dt);
              let buf = Vm.Buf.create () in
              let cut = Core.Demand_trace.synthesize dt ~plan ~into:buf in
              let ctx =
                Printf.sprintf "%s synth [%s]" kernel.Kernel.name
                  (String.concat ","
                     (List.map (fun (a, d) -> Printf.sprintf "%s:%d" a d) plan))
              in
              check_events ctx
                (Array.sub r.Vm.events 0 r.Vm.n_events)
                (Vm.Buf.data buf) (Vm.Buf.length buf);
              check_int (ctx ^ ": cut") r.Vm.cut_events cut)
            plans)
        [ Core.Executor.Full;
          Core.Executor.Budget (max 2 (kernel.Kernel.flops n / 2)) ])
    [ (Kernels.Matmul.kernel, 16); (Kernels.Jacobi3d.kernel, 8) ]

(* --- executor: VM path vs the closure reference --- *)

let check_measurement ctx (a : Core.Executor.measurement)
    (b : Core.Executor.measurement) =
  check_stats (ctx ^ " stats") a.Core.Executor.stats b.Core.Executor.stats;
  check_counters (ctx ^ " counters") a.Core.Executor.counters
    b.Core.Executor.counters;
  Alcotest.(check (float 0.0))
    (ctx ^ " cycles")
    (Core.Executor.cycles a) (Core.Executor.cycles b);
  Alcotest.(check (float 0.0)) (ctx ^ " scale") a.Core.Executor.scale
    b.Core.Executor.scale

let test_executor_paths_agree () =
  let kernel = Kernels.Matmul.kernel in
  let n = 24 in
  let program = kernel.Kernel.program in
  List.iter
    (fun mode ->
      let fast = Core.Executor.measure machine kernel ~n ~mode program in
      let slow =
        Core.Executor.measure_reference machine kernel ~n ~mode program
      in
      check_measurement "executor" fast slow)
    [ Core.Executor.Full; Core.Executor.Budget (kernel.Kernel.flops n / 4) ]

(* --- engine: every route vs the closure reference, and demand-trace
   reuse --- *)

let test_engine_paths_agree () =
  let kernel = Kernels.Matmul.kernel in
  let n = 32 in
  let v = List.hd (Core.Derive.variants machine kernel) in
  let bindings =
    match Core.Search.model_point machine ~n v with
    | Some b -> b
    | None -> Alcotest.fail "no model point"
  in
  let mode = Core.Executor.Budget 20_000 in
  let a, b =
    match
      Transform.Prefetch_insert.candidates
        (Core.Variant.instantiate v ~bindings)
    with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "expected two prefetch candidates"
  in
  let requests =
    [
      Core.Engine.request v ~n ~mode ~bindings;
      Core.Engine.request v ~n ~mode ~bindings ~prefetch:[ (a, 2) ];
      Core.Engine.request v ~n ~mode ~bindings ~prefetch:[ (b, 4) ];
      Core.Engine.request v ~n ~mode ~bindings ~prefetch:[ (a, 2); (b, 4) ];
    ]
  in
  let fast_engine = Core.Engine.create machine in
  (* Each evaluation against the reference measurement of its request's
     program. *)
  let reference r =
    match Core.Engine.build fast_engine r with
    | Some program ->
      Core.Executor.measure_reference machine kernel ~n ~mode program
    | None -> Alcotest.fail "request did not build"
  in
  let fast =
    List.map
      (fun r ->
        match Core.Engine.evaluate fast_engine r with
        | Some ev -> ev
        | None -> Alcotest.fail "evaluation failed")
      requests
  in
  let slow = List.map reference requests in
  List.iteri
    (fun i (f, s) ->
      check_measurement
        (Printf.sprintf "engine req %d" i)
        f.Core.Engine.measurement s)
    (List.combine fast slow);
  (* Exact mode measures every candidate directly, alone or batched:
     nothing captures a demand trace. *)
  let direct_stats = Core.Engine.stats fast_engine in
  check_int "no single-shot trace fill" 0 direct_stats.Core.Engine.trace_fills;
  (* Batch evaluation matches the single-evaluation path. *)
  let check_batch what engine requests =
    List.iteri
      (fun i (b, r) ->
        match b with
        | None -> Alcotest.fail "batch evaluation failed"
        | Some b ->
          check_measurement
            (Printf.sprintf "%s req %d" what i)
            b.Core.Engine.measurement (reference r))
      (List.combine (Core.Engine.evaluate_batch engine requests) requests)
  in
  let batch_engine = Core.Engine.create machine in
  check_batch "batch" batch_engine requests;
  let bstats = Core.Engine.stats batch_engine in
  check_int "no batched trace fill" 0 bstats.Core.Engine.trace_fills;
  check_int "no batched group" 0 bstats.Core.Engine.batched_groups;
  (* Under incremental re-pricing the three prefetch candidates share
     one bindings point, so they form one group over a single captured
     trace.  Their plans bind different arrays, which the re-pricer
     declines, so the group is measured by one multi-plan walk. *)
  let repricing = Core.Engine.create machine in
  Core.Engine.set_incremental repricing true;
  check_batch "walked" repricing requests;
  let rstats = Core.Engine.stats repricing in
  check_int "one grouped trace fill" 1 rstats.Core.Engine.trace_fills;
  check_int "one group" 1 rstats.Core.Engine.batched_groups;
  (* A later group at that point walks the cached trace. *)
  check_batch "reused" repricing
    [
      Core.Engine.request v ~n ~mode ~bindings ~prefetch:[ (a, 8) ];
      Core.Engine.request v ~n ~mode ~bindings ~prefetch:[ (b, 8) ];
    ];
  check_int "the later group reused the trace"
    (rstats.Core.Engine.trace_hits + 1)
    (Core.Engine.stats repricing).Core.Engine.trace_hits

(* --- cache unit tests --- *)

let small_cache ~assoc =
  Memsim.Cache.create
    {
      Machine.name = "test";
      size_bytes = 4 * assoc * 32;
      line_bytes = 32;
      assoc;
      hit_cycles = 1;
    }

let test_cache_insert_fills_invalid_ways_first () =
  let c = small_cache ~assoc:4 in
  (* Same set: 4 sets, so lines 0,4,8,12,16 map to set 0. *)
  for i = 0 to 3 do
    let evicted_dirty =
      Memsim.Cache.insert c ~now:i ~ready:i ~dirty:true ~line:(i * 4)
    in
    Alcotest.(check bool) "no eviction while ways free" false evicted_dirty
  done;
  check_int "all ways used" 4 (Memsim.Cache.occupancy c);
  (* A fifth line must evict the LRU (line 0, stamp 0) — and it was
     dirty, so the insert reports a writeback. *)
  Alcotest.(check bool) "LRU eviction is dirty" true
    (Memsim.Cache.insert c ~now:10 ~ready:10 ~dirty:false ~line:16);
  Alcotest.(check bool) "LRU victim gone" false
    (Memsim.Cache.resident c ~line:0);
  Alcotest.(check bool) "MRU survivor stays" true
    (Memsim.Cache.resident c ~line:12)

let test_cache_set_dirty_absent_noop () =
  let c = small_cache ~assoc:2 in
  Memsim.Cache.set_dirty c ~line:5;
  check_int "still empty" 0 (Memsim.Cache.occupancy c);
  ignore (Memsim.Cache.insert c ~now:0 ~ready:0 ~dirty:false ~line:5);
  Memsim.Cache.set_dirty c ~line:5;
  (* Evicting the line must now report a dirty writeback. *)
  ignore (Memsim.Cache.insert c ~now:1 ~ready:1 ~dirty:false ~line:13);
  Alcotest.(check bool) "marked dirty" true
    (Memsim.Cache.insert c ~now:2 ~ready:2 ~dirty:false ~line:21)

(* --- trace buffer reuse --- *)

let test_trace_clear_and_capacity () =
  let t = Memsim.Trace.create ~capacity:2 () in
  let sink = Memsim.Trace.sink t in
  for i = 0 to 99 do
    sink.Ir.Sink.load (8 * i)
  done;
  sink.Ir.Sink.store 0;
  check_int "length" 101 (Memsim.Trace.length t);
  check_int "loads" 100 (Memsim.Trace.loads t);
  check_int "stores" 1 (Memsim.Trace.stores t);
  Memsim.Trace.clear t;
  check_int "cleared length" 0 (Memsim.Trace.length t);
  check_int "cleared loads" 0 (Memsim.Trace.loads t);
  check_int "cleared stores" 0 (Memsim.Trace.stores t);
  sink.Ir.Sink.prefetch 16;
  check_int "reusable after clear" 1 (Memsim.Trace.prefetches t);
  check_int "packed tag" Ir.Sink.tag_prefetch
    (Ir.Sink.packed_tag (Memsim.Trace.raw t).(0));
  check_int "packed addr" 16 (Ir.Sink.packed_addr (Memsim.Trace.raw t).(0))

let suite =
  [
    Alcotest.test_case "variants: vm = interpreter" `Quick
      test_variants_differential;
    Alcotest.test_case "random pipelines: vm = interpreter" `Quick
      test_random_pipelines_differential;
    Alcotest.test_case "warm cut = closure warm prefix" `Quick
      test_warm_cut_matches_closure_prefix;
    Alcotest.test_case "leaf loops cut inside an iteration" `Quick
      test_leaf_cuts;
    Alcotest.test_case "replay_packed = sink replay" `Quick
      test_replay_packed_vs_sink;
    Alcotest.test_case "prefetch synthesis = transformed program" `Quick
      test_prefetch_synthesis;
    Alcotest.test_case "executor: fast = closures" `Quick
      test_executor_paths_agree;
    Alcotest.test_case "engine: fast = closures, traces reused" `Quick
      test_engine_paths_agree;
    Alcotest.test_case "cache insert prefers invalid ways" `Quick
      test_cache_insert_fills_invalid_ways_first;
    Alcotest.test_case "set_dirty on absent line" `Quick
      test_cache_set_dirty_absent_noop;
    Alcotest.test_case "trace clear and growth" `Quick
      test_trace_clear_and_capacity;
  ]
