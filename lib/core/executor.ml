type mode = Full | Budget of int

let default_budget = Budget 4_000_000

(* The flop budget a mode traces to, and the warm-up pass run first
   when that budget stops short of the full problem: half the budget,
   whose counters are discarded, so compulsory misses of the sampled
   prefix do not masquerade as steady-state behaviour. *)
let trace_budgets (kernel : Kernels.Kernel.t) ~n = function
  | Full -> (None, None)
  | Budget b ->
    ( Some b,
      if b < kernel.Kernels.Kernel.flops n then Some (max 1 (b / 2)) else None )

type timings = { compile_s : float; exec_s : float; sim_s : float }

type work = { mutable vm_events : int; mutable replayed_events : int }

let work () = { vm_events = 0; replayed_events = 0 }

let add_work work ~vm ~replayed =
  match work with
  | Some w ->
    w.vm_events <- w.vm_events + vm;
    w.replayed_events <- w.replayed_events + replayed
  | None -> ()

let no_timings = { compile_s = 0.0; exec_s = 0.0; sim_s = 0.0 }

type measurement = {
  cost : Memsim.Cost.t;
  counters : Memsim.Counters.t;
  stats : Ir.Exec.stats;
  scale : float;
  mflops : float;
  timings : timings;
}

(* Per-domain buffer pool: repeated evaluations on one domain reuse the
   same event and mark buffers instead of reallocating per candidate.
   Domain-local rather than global so that measuring stays safe from
   any domain: two domains measuring at once never share a buffer.
   (The engine measures on one domain; [eco check]'s trial domains run
   only the IR interpreter and never measure.) *)
let buffers : (Ir.Vm.Buf.t * Ir.Vm.Buf.t) Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      (Ir.Vm.Buf.create ~capacity:(1 lsl 16) (), Ir.Vm.Buf.create ~capacity:4096 ()))

let pooled_buffers () = Domain.DLS.get buffers

(* Per-domain hierarchy: a simulated hierarchy of the paper's primary
   machine is ~1MB of tag/stamp/fill arrays, and a search takes
   hundreds of measurements — creating one per candidate was most of
   the evaluator's allocation churn.  [reset] restores the exact
   post-[create] state (the differential suites would catch anything
   less), and [finish] snapshots counters into the measurement, so
   nothing escapes a measurement that the next reset could corrupt.
   Keyed by physical machine identity; a different machine replaces
   it. *)
let hierarchy_slot : (Machine.t * Memsim.Hierarchy.t) option ref Domain.DLS.key
    =
  Domain.DLS.new_key (fun () -> ref None)

let pooled_hierarchy machine =
  let slot = Domain.DLS.get hierarchy_slot in
  let h =
    match !slot with
    | Some (m, h) when m == machine -> h
    | _ ->
      let h = Memsim.Hierarchy.create machine in
      slot := Some (machine, h);
      h
  in
  Memsim.Hierarchy.reset h;
  h

let finish machine (kernel : Kernels.Kernel.t) ~n ~counters ~stats ~timings =
  let cost = Memsim.Cost.evaluate machine counters stats in
  let total_flops = kernel.Kernels.Kernel.flops n in
  let scale =
    if stats.Ir.Exec.completed then 1.0
    else if stats.Ir.Exec.flops > 0 then
      float_of_int total_flops /. float_of_int stats.Ir.Exec.flops
    else 1.0
  in
  let cost = if scale = 1.0 then cost else Memsim.Cost.scale scale cost in
  {
    cost;
    counters = Memsim.Counters.copy counters;
    stats;
    scale;
    mflops = cost.Memsim.Cost.mflops;
    timings;
  }

(* The reference: the closure interpreter streams every access through
   [Hierarchy.sink], running the warm-up pass as a separate execution.
   Addresses are deterministic across runs, so the cache contents carry
   over into the measured run. *)
let measure_reference machine (kernel : Kernels.Kernel.t) ~n ~mode program =
  let t0 = Unix_time.now () in
  let hierarchy = Memsim.Hierarchy.create machine in
  let params = [ (kernel.Kernels.Kernel.size_param, n) ] in
  let register_budget = Machine.available_registers machine in
  let sink = Memsim.Hierarchy.sink hierarchy in
  let flop_budget, warm_budget = trace_budgets kernel ~n mode in
  (match warm_budget with
  | Some w ->
    ignore (Ir.Exec.run ~sink ~flop_budget:w ~register_budget ~params program);
    Memsim.Hierarchy.reset_counters hierarchy
  | None -> ());
  let result =
    Ir.Exec.run ~sink ?flop_budget ~register_budget ~params program
  in
  let counters = Memsim.Hierarchy.counters hierarchy in
  let timings = { no_timings with exec_s = Unix_time.now () -. t0 } in
  finish machine kernel ~n ~counters ~stats:result.Ir.Exec.stats ~timings

(* Shrink the flop budget for a sampled measurement: the flop-scale
   extrapolation in [finish] recovers full-run magnitudes from the
   shorter trace, so sampling shortens both trace generation and
   replay. *)
let effective_mode sampling mode =
  match (sampling, mode) with
  | Some sp, Budget b when sp.Memsim.Sampling.shrink > 1 ->
    Budget (max 1 (b / sp.Memsim.Sampling.shrink))
  | _ -> mode

(* Measured replay after the warm-up prefix was replayed state-only.

   Exact: re-replay the full stream [0 .. n_events) on the warmed
   state, bit-identical to the historical semantics.

   Sampled: measure only the post-cut suffix — the deepest, warmest
   stretch of the trace — through the sampler's windows, then
   extrapolate the counters by the sampler's window factor times the
   suffix fraction.  Skipping the prefix re-measurement halves the
   replay work and estimates steady state from the region least
   contaminated by cold misses; [Demand_trace.reprice_group] replicates
   the same suffix walk and factor arithmetic bit-for-bit. *)
let suffix_factor ~warm ~fed =
  if fed > 0 then float_of_int (warm + fed) /. float_of_int fed else 1.0

(* State-only replay of the warm-up prefix [0, cut).  Sampled
   measurements cap it at the sampler's trailing period
   ({!Memsim.Sampling.prefix_cap}): the skipped head of the prefix is
   state the windowed estimator never relies on, and on large budgets
   it dominates the replay cost.  Exact replay always warms in full.
   Returns the number of events replayed. *)
let warm_prefix ?sampling hierarchy events ~cut =
  if cut >= 0 then begin
    let start =
      match sampling with
      | None -> 0
      | Some sp -> max 0 (cut - Memsim.Sampling.prefix_cap sp)
    in
    Memsim.Hierarchy.warm_packed hierarchy events ~pos:start
      ~len:(cut - start);
    Memsim.Hierarchy.reset_counters hierarchy;
    cut - start
  end
  else 0

(* The measured replay; returns the number of events replayed. *)
let replay_measured ?sampling hierarchy events ~cut ~n_events =
  match sampling with
  | None ->
    Memsim.Hierarchy.replay_packed hierarchy events ~pos:0 ~len:n_events;
    n_events
  | Some sp ->
    let start = if cut >= 0 then cut else 0 in
    let sampler = Memsim.Sampling.sampler sp in
    Memsim.Hierarchy.replay_sampled hierarchy sampler events ~pos:start
      ~len:(n_events - start);
    Memsim.Counters.extrapolate
      (Memsim.Hierarchy.counters hierarchy)
      (Memsim.Sampling.factor sampler
      *. suffix_factor ~warm:start ~fed:(n_events - start));
    Memsim.Sampling.replayed sampler

(* Compile the program once to bytecode, run it once (recording the
   warm-up cut position), then feed the packed event buffer to the
   hierarchy in one tight replay.  The reference runs the program twice
   in budget mode; one VM run plus a prefix replay is equivalent
   because addresses are deterministic — the [vm] differential suite
   checks counters stay bit-identical. *)
let measure ?sampling ?work machine (kernel : Kernels.Kernel.t) ~n ~mode
    program =
  let t0 = Unix_time.now () in
  let params = [ (kernel.Kernels.Kernel.size_param, n) ] in
  let register_budget = Machine.available_registers machine in
  let vm = Ir.Vm.compile ~register_budget ~params program in
  let t1 = Unix_time.now () in
  let events, marks = pooled_buffers () in
  let flop_budget, warm_budget =
    trace_budgets kernel ~n (effective_mode sampling mode)
  in
  let r = Ir.Vm.run ?flop_budget ?warm_budget ~events ~marks vm in
  let t2 = Unix_time.now () in
  let hierarchy = pooled_hierarchy machine in
  let warmed =
    warm_prefix ?sampling hierarchy r.Ir.Vm.events ~cut:r.Ir.Vm.cut_events
  in
  let measured =
    replay_measured ?sampling hierarchy r.Ir.Vm.events
      ~cut:r.Ir.Vm.cut_events ~n_events:r.Ir.Vm.n_events
  in
  add_work work ~vm:r.Ir.Vm.n_events ~replayed:(warmed + measured);
  let t3 = Unix_time.now () in
  let timings =
    { compile_s = t1 -. t0; exec_s = t2 -. t1; sim_s = t3 -. t2 }
  in
  finish machine kernel ~n
    ~counters:(Memsim.Hierarchy.counters hierarchy)
    ~stats:r.Ir.Vm.stats ~timings

let measure_from_trace ?sampling ?work machine kernel ~n ~stats ~events
    ~n_events ~cut =
  let t0 = Unix_time.now () in
  let hierarchy = pooled_hierarchy machine in
  let warmed = warm_prefix ?sampling hierarchy events ~cut in
  let measured = replay_measured ?sampling hierarchy events ~cut ~n_events in
  add_work work ~vm:0 ~replayed:(warmed + measured);
  let timings = { no_timings with sim_s = Unix_time.now () -. t0 } in
  finish machine kernel ~n
    ~counters:(Memsim.Hierarchy.counters hierarchy)
    ~stats ~timings

let cycles m = m.cost.Memsim.Cost.total_cycles

(* Multiplicative timing perturbation: the same work observed to take
   [factor] times as long.  Unlike [Memsim.Cost.scale] (extrapolation of
   a sampled run to the full problem, which keeps MFLOPS fixed), this
   keeps the flop count and divides the throughput. *)
let perturb m factor =
  if factor = 1.0 then m
  else begin
    let c = m.cost in
    let cost =
      {
        c with
        Memsim.Cost.mem_issue_cycles = c.Memsim.Cost.mem_issue_cycles *. factor;
        fp_issue_cycles = c.Memsim.Cost.fp_issue_cycles *. factor;
        other_issue_cycles = c.Memsim.Cost.other_issue_cycles *. factor;
        stall_cycles = c.Memsim.Cost.stall_cycles *. factor;
        total_cycles = c.Memsim.Cost.total_cycles *. factor;
        seconds = c.Memsim.Cost.seconds *. factor;
        mflops =
          (if factor > 0.0 then c.Memsim.Cost.mflops /. factor
           else c.Memsim.Cost.mflops);
      }
    in
    { m with cost; mflops = cost.Memsim.Cost.mflops }
  end
