(* Demand-trace capture and prefetch synthesis.

   The prefetch-distance search evaluates many candidates whose demand
   accesses are identical — only the injected prefetch events differ.
   [capture] runs the demand (prefetch-free) program once through the
   bytecode VM with iteration marks enabled; [synthesize] then rebuilds
   the exact packed event stream of any prefetch plan by interleaving
   the recorded demand events with prefetch events computed from the
   marks — no re-interpretation of the program.

   Exactness contract (checked by the [vm] test suite): the synthesized
   stream is bit-identical to executing
   [Prefetch_insert.apply]-transformed programs, including the warm-up
   cut position used by budgeted measurement.  This relies on mirroring
   three behaviours: [apply] prepends one prefetch per deduplicated
   stream to each innermost-loop body (so per-iteration order is
   prefetches first, in application order — last applied array first);
   the prefetch address is the demand offset shifted by
   [coeff(var) * distance * step]; and the interpreter emits nothing
   for prefetches of register-resident scalars. *)

type rep = {
  rconst : int;
      (* ((base + folded const) lsl 5) lor tag_prefetch: the packed
         event value at distance 0 with all mark slots zero *)
  rterms : (int * int) array;  (* (mark-record field, coeff lsl 5) *)
  vcoef : int;  (* coeff of the loop var * step, lsl 5 *)
}

type t = {
  program : Ir.Program.t;  (* the demand program *)
  stats : Ir.Exec.stats;
  events : int array;
  marks : int array;
  cut_events : int;  (* -1 when the mode needs no warm-up pass *)
  cut_marks : int;
  sites : (string * rep array) array array;  (* per mark id *)
  mark_width : int array;  (* record width in words, per mark id *)
  words : int;
}

let program t = t.program
let stats t = t.stats
let words t = t.words

let capture ?work machine (kernel : Kernels.Kernel.t) ~n ~(mode : Executor.mode)
    (program : Ir.Program.t) =
  let params = Kernels.Kernel.params kernel n in
  let register_budget = Machine.available_registers machine in
  let line_elems = Machine.line_elems machine 0 in
  let vm = Ir.Vm.compile ~marks:true ~register_budget ~params program in
  let flop_budget, warm_budget = Executor.trace_budgets kernel ~n mode in
  (* The domain's pooled buffers, not fresh ones grown by doubling; the
     trace cache keeps the copies made below. *)
  let events, marks = Executor.pooled_buffers () in
  let r = Ir.Vm.run ?flop_budget ?warm_budget ~events ~marks vm in
  Executor.add_work work ~vm:r.Ir.Vm.n_events ~replayed:0;
  let mark_slots = Ir.Vm.mark_slots vm in
  let placements, _ =
    Ir.Exec.placements ~with_data:false ~register_budget ~params program
  in
  let placement_of name =
    List.find (fun pl -> pl.Ir.Exec.name = name) placements
  in
  let param_value x =
    match List.assoc_opt x params with
    | Some v -> v
    | None ->
      invalid_arg (Printf.sprintf "Demand_trace.capture: unbound parameter %s" x)
  in
  let slot_of = Hashtbl.create 16 in
  List.iteri
    (fun i v -> Hashtbl.replace slot_of v i)
    (Ir.Stmt.loop_vars program.Ir.Program.body);
  let inner = Ir.Stmt.innermost_loops program.Ir.Program.body in
  let sites =
    List.mapi
      (fun id (l : Ir.Stmt.loop) ->
        let field_of_slot =
          let tbl = Hashtbl.create 8 in
          Array.iteri (fun i s -> Hashtbl.replace tbl s i) mark_slots.(id);
          Hashtbl.find tbl
        in
        let refs = Ir.Stmt.access_refs l.Ir.Stmt.body in
        (* Group by array, first-occurrence order, in-memory only. *)
        let arrays = ref [] in
        List.iter
          (fun ((r : Ir.Reference.t), _) ->
            let a = r.Ir.Reference.array in
            if
              (placement_of a).Ir.Exec.in_memory
              && not (List.mem a !arrays)
            then arrays := a :: !arrays)
          refs;
        List.rev_map
          (fun a ->
            let pl = placement_of a in
            let seen = Hashtbl.create 8 in
            let reps =
              List.filter_map
                (fun ((r : Ir.Reference.t), _) ->
                  if r.Ir.Reference.array <> a then None
                  else
                    let key =
                      Transform.Prefetch_insert.stream_key ~line_elems r
                    in
                    if Hashtbl.mem seen key then None
                    else begin
                      Hashtbl.add seen key ();
                      let offset =
                        List.fold_left2
                          (fun acc idx stride ->
                            Ir.Aff.add acc (Ir.Aff.scale stride idx))
                          Ir.Aff.zero r.Ir.Reference.idx pl.Ir.Exec.strides
                      in
                      let const = ref (Ir.Aff.const_part offset) in
                      let terms =
                        List.filter_map
                          (fun (c, x) ->
                            match Hashtbl.find_opt slot_of x with
                            | Some slot -> Some (slot, c)
                            | None ->
                              const := !const + (c * param_value x);
                              None)
                          (Ir.Aff.terms offset)
                      in
                      let rconst =
                        ((pl.Ir.Exec.base + !const) lsl 5)
                        lor Ir.Sink.tag_prefetch
                      in
                      let rterms =
                        Array.of_list
                          (List.map
                             (fun (slot, c) -> (field_of_slot slot, c lsl 5))
                             terms)
                      in
                      let vcoef =
                        (Ir.Aff.coeff offset l.Ir.Stmt.var * l.Ir.Stmt.step)
                        lsl 5
                      in
                      Some { rconst; rterms; vcoef }
                    end)
                refs
            in
            (a, Array.of_list reps))
          !arrays
        |> Array.of_list)
      inner
  in
  {
    program;
    stats = r.Ir.Vm.stats;
    events = Array.sub r.Ir.Vm.events 0 r.Ir.Vm.n_events;
    marks = Array.sub r.Ir.Vm.marks 0 r.Ir.Vm.n_marks;
    cut_events = r.Ir.Vm.cut_events;
    cut_marks = r.Ir.Vm.cut_marks;
    sites = Array.of_list sites;
    mark_width = Array.map (fun slots -> 2 + Array.length slots) mark_slots;
    words = r.Ir.Vm.n_events + r.Ir.Vm.n_marks;
  }

(* Per-iteration emission table of [plan]: for each mark id, the
   [(base, terms, bucket)] prefetch emissions in stream order.  [apply]
   is folded over the plan in ascending order and prepends to the body,
   so the last-applied (greatest) array's prefetches come first.
   [bucket] is the slack bucket the incremental re-pricer assigned to
   the emission's array in [track] (-1 = untracked). *)
let emit_table t ~plan ~track =
  Array.map
    (fun site ->
      let site = Array.to_list site in
      Array.concat
        (List.rev_map
           (fun (a, d) ->
             match List.assoc_opt a site with
             | None -> [||]
             | Some reps ->
               let bucket =
                 match List.assoc_opt a track with Some b -> b | None -> -1
               in
               Array.map
                 (fun rep ->
                   (rep.rconst + (rep.vcoef * d), rep.rterms, bucket))
                 reps)
           plan))
    t.sites

(* The packed value of one emission at the mark record starting at
   [pos]. *)
let[@inline] emission marks pos (base, terms, _) =
  let v = ref base in
  for k = 0 to Array.length terms - 1 do
    let field, coeff = terms.(k) in
    v := !v + (coeff * marks.(pos + 2 + field))
  done;
  !v

let synthesize t ~plan ~(into : Ir.Vm.Buf.t) =
  Ir.Vm.Buf.clear into;
  let emit = emit_table t ~plan ~track:[] in
  let events = t.events and marks = t.marks in
  let n_events = Array.length events and n_marks = Array.length marks in
  let cut = ref (-1) in
  let prev = ref 0 in
  let pos = ref 0 in
  while !pos < n_marks do
    if !pos = t.cut_marks && t.cut_events >= 0 then
      cut := Ir.Vm.Buf.length into + (t.cut_events - !prev);
    let id = marks.(!pos) in
    let epos = marks.(!pos + 1) in
    for i = !prev to epos - 1 do
      Ir.Vm.Buf.push into events.(i)
    done;
    prev := epos;
    let ems = emit.(id) in
    for e = 0 to Array.length ems - 1 do
      Ir.Vm.Buf.push into (emission marks !pos ems.(e))
    done;
    pos := !pos + t.mark_width.(id)
  done;
  if t.cut_events >= 0 && !cut = -1 then
    cut := Ir.Vm.Buf.length into + (t.cut_events - !prev);
  for i = !prev to n_events - 1 do
    Ir.Vm.Buf.push into events.(i)
  done;
  !cut

(* Each plan is synthesized into the domain's pooled event buffer and
   measured from it, exactly as the reference is. *)
let measure_plans ?sampling ?work machine kernel ~n t ~plans =
  let into, _ = Executor.pooled_buffers () in
  Array.map
    (fun plan ->
      let cut = synthesize t ~plan ~into in
      Executor.measure_from_trace ?sampling ?work machine kernel ~n
        ~stats:t.stats ~events:(Ir.Vm.Buf.data into)
        ~n_events:(Ir.Vm.Buf.length into) ~cut)
    plans

(* --- Incremental prefetch re-simulation -----------------------------

   When the K plans of a sweep group bind the same arrays and differ
   only in prefetch distances, a full replay per plan re-derives the
   same demand-side hit/miss classification K times.  Instead: replay
   the base plan once while observing, for each varying array's
   prefetch emissions, the timeliness slack of the prefetched line's
   first demand use (how many cycles early the line arrived; negative =
   the stall paid; [Hierarchy.replay_one]), bucketed per
   varying array.  A sibling at distance [d0 + dd] on some array issues
   that array's prefetches [dd] innermost iterations earlier, so each
   of its slacks shifts by [dd * cycles-per-iteration] while the other
   arrays' buckets shift by their own deltas independently — the joint
   estimate sums the per-bucket stall deltas.  A first use that MISSES
   means the prefetched line was evicted before use (wasted): the
   demand paid the full miss and, to first order, pays it at every
   nearby distance — distance-invariant evidence that contributes zero
   to every sibling's delta but still counts as an observed outcome, so
   fully-wasted groups (stencils whose planes thrash L1) re-price
   instead of falling back to full replay.  The estimates only RANK the
   siblings — the argmin is re-measured exactly, so committed numbers
   never come from the model. *)

type repriced = {
  rp_measurements : Executor.measurement option array;
      (** [Some] where a real measurement was taken (the base plan and
          the estimated-best sibling), [None] where the estimate stood
          in *)
  rp_estimated : int;  (** plans priced by the slack model *)
  rp_joint : bool;
      (** the group varied more than one array's distance (the joint
          multi-bucket path, as opposed to the single-array special
          case) *)
}

(* The arrays whose distances vary across a sweep group, in base-plan
   order — [None] when the plans do not all bind the same array list
   (genuinely unanalyzable: fall back to full replay). *)
let varying_arrays plans =
  if Array.length plans < 2 then None
  else begin
    let base = plans.(0) in
    let arrays = List.map fst base in
    let ok = ref true in
    let vary = ref [] in
    Array.iter
      (fun plan ->
        if List.map fst plan <> arrays then ok := false
        else
          List.iter2
            (fun (a, d) (_, d0) ->
              if d <> d0 && not (List.mem a !vary) then vary := a :: !vary)
            plan base)
      plans;
    match (!ok, !vary) with
    | true, (_ :: _) -> Some (List.rev !vary)
    | _ -> None
  end

(* Tracked prefetched lines awaiting their first demand use, mapped to
   their slack bucket: an open-addressing int table (linear probing,
   backward-shift deletion), so the per-demand-event probe allocates
   nothing.  Lines are non-negative; [-1] marks an empty slot. *)
module Pending = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable count : int;
  }

  (* Big enough to live in the major heap from the start: growth is
     rare, and the minor heap sees nothing per event. *)
  let create () =
    { keys = Array.make 1024 (-1); vals = Array.make 1024 0; count = 0 }

  let[@inline] home line mask = (line * 0x9E3779B1) land mask

  (* The slot holding [line], or the empty slot ending its probe. *)
  let[@inline] slot t line =
    let keys = t.keys in
    let mask = Array.length keys - 1 in
    let i = ref (home line mask) in
    while
      let k = Array.unsafe_get keys !i in
      k <> line && k <> -1
    do
      i := (!i + 1) land mask
    done;
    !i

  let rec replace t line bkt =
    if 2 * (t.count + 1) > Array.length t.keys then begin
      let keys = t.keys and vals = t.vals in
      t.keys <- Array.make (2 * Array.length keys) (-1);
      t.vals <- Array.make (2 * Array.length keys) 0;
      t.count <- 0;
      for i = 0 to Array.length keys - 1 do
        if keys.(i) <> -1 then replace t keys.(i) vals.(i)
      done
    end;
    let i = slot t line in
    if t.keys.(i) = -1 then begin
      t.keys.(i) <- line;
      t.count <- t.count + 1
    end;
    t.vals.(i) <- bkt

  (* Remove [line] and return its bucket; [-1] when it is not pending. *)
  let take t line =
    let i = slot t line in
    let keys = t.keys and vals = t.vals in
    if Array.unsafe_get keys i = -1 then -1
    else begin
      let bkt = Array.unsafe_get vals i in
      let mask = Array.length keys - 1 in
      let hole = ref i and j = ref ((i + 1) land mask) in
      while Array.unsafe_get keys !j <> -1 do
        let k = Array.unsafe_get keys !j in
        (* [k] may fill the hole when its home slot is not strictly
           between the hole and its own slot. *)
        if (!j - home k mask) land mask >= (!j - !hole) land mask then begin
          Array.unsafe_set keys !hole k;
          Array.unsafe_set vals !hole (Array.unsafe_get vals !j);
          hole := !j
        end;
        j := (!j + 1) land mask
      done;
      Array.unsafe_set keys !hole (-1);
      t.count <- t.count - 1;
      bkt
    end
end

let reprice_group ?sampling ?work machine kernel ~n t ~plans =
  match varying_arrays plans with
  | None -> None
  | Some vary ->
    let t0 = Unix_time.now () in
    let k = Array.length plans in
    let nb = List.length vary in
    let track = List.mapi (fun b a -> (a, b)) vary in
    let emit = emit_table t ~plan:plans.(0) ~track in
    (* The warm-up: the base plan's synthesized prefix, replayed
       state-only as [Executor.measure_from_trace] does, so [warm] is
       the reference's cut and the suffix factor below stays
       bit-identical.  The pooled hierarchy is safe to share with the
       sibling re-measurement below: [m0]'s counters are snapshotted by
       [finish] before [measure_plans] resets it. *)
    let into, _ = Executor.pooled_buffers () in
    let warm = synthesize t ~plan:plans.(0) ~into in
    let h = Executor.pooled_hierarchy machine in
    let fed =
      ref (Executor.warm_prefix ?sampling h (Ir.Vm.Buf.data into) ~cut:warm)
    in
    let events = t.events and marks = t.marks in
    let n_events = Array.length events and n_marks = Array.length marks in
    let sampler =
      match sampling with
      | None -> None
      | Some sp -> Some (Memsim.Sampling.sampler sp)
    in
    (* L1 line of a packed event, as [Memsim.Cache.line_of_addr]
       computes it (line sizes are powers of two), without a
       cross-module call per event. *)
    let line_shift =
      let bytes = Memsim.Cache.line_bytes (Memsim.Hierarchy.cache h 0) in
      let rec log2 s = if 1 lsl s >= bytes then s else log2 (s + 1) in
      log2 0 + 2
    in
    (* Pending tracked lines (line -> slack bucket) and the per-bucket
       first-use outcomes: timely slacks, in arrival order, plus a
       count of matched first uses (timely or wasted). *)
    let pending = Pending.create () in
    let slacks = Array.init nb (fun _ -> Array.make 1024 0) in
    let n_slacks = Array.make nb 0 in
    let matched = Array.make nb 0 in
    let demand_slack_event v =
      let s = Memsim.Hierarchy.replay_one h v in
      if pending.Pending.count > 0 && v land 3 <> Ir.Sink.tag_prefetch then begin
        let bkt = Pending.take pending (v lsr line_shift) in
        if bkt >= 0 then begin
          matched.(bkt) <- matched.(bkt) + 1;
          (* A demand miss = wasted prefetch: no slack sample, but the
             matched count keeps the bucket as observed evidence. *)
          if s <> Memsim.Hierarchy.no_slack then begin
            let len = n_slacks.(bkt) in
            if len = Array.length slacks.(bkt) then begin
              let bigger = Array.make (2 * len) 0 in
              Array.blit slacks.(bkt) 0 bigger 0 len;
              slacks.(bkt) <- bigger
            end;
            slacks.(bkt).(len) <- s;
            n_slacks.(bkt) <- len + 1
          end
        end
      end
    in
    let feed_demand prev epos =
      match sampler with
      | None ->
        for i = prev to epos - 1 do
          demand_slack_event (Array.unsafe_get events i)
        done;
        fed := !fed + (epos - prev)
      | Some s ->
        let p = ref prev in
        let remaining = ref (epos - prev) in
        while !remaining > 0 do
          let c = Memsim.Sampling.take s !remaining in
          (match Memsim.Sampling.action s with
          | Memsim.Sampling.Measure ->
            for i = !p to !p + c - 1 do
              demand_slack_event (Array.unsafe_get events i)
            done
          | Memsim.Sampling.Warm ->
            Memsim.Hierarchy.warm_packed h events ~pos:!p ~len:c
          | Memsim.Sampling.Drop -> ());
          p := !p + c;
          remaining := !remaining - c
        done
    in
    let measure_prefetch bkt v =
      let issued = Memsim.Hierarchy.replay_one h v in
      if bkt >= 0 && issued <> Memsim.Hierarchy.no_slack then
        Pending.replace pending (v lsr line_shift) bkt
    in
    let feed_prefetch bkt v =
      match sampler with
      | None ->
        measure_prefetch bkt v;
        incr fed
      | Some s -> (
        ignore (Memsim.Sampling.take s 1);
        match Memsim.Sampling.action s with
        | Memsim.Sampling.Measure -> measure_prefetch bkt v
        | Memsim.Sampling.Warm -> Memsim.Hierarchy.warm_one h v
        | Memsim.Sampling.Drop -> ())
    in
    let suffix = sampler <> None && t.cut_events >= 0 in
    let n_iter = ref 0 in
    let prev = ref (if suffix then t.cut_events else 0) in
    let pos = ref (if suffix then t.cut_marks else 0) in
    while !pos < n_marks do
      let id = marks.(!pos) in
      let epos = marks.(!pos + 1) in
      if epos > !prev then feed_demand !prev epos;
      prev := epos;
      incr n_iter;
      let ems = emit.(id) in
      for e = 0 to Array.length ems - 1 do
        let (_, _, bucket) as em = ems.(e) in
        feed_prefetch bucket (emission marks !pos em)
      done;
      pos := !pos + t.mark_width.(id)
    done;
    if n_events > !prev then feed_demand !prev n_events;
    Option.iter (fun s -> fed := !fed + Memsim.Sampling.replayed s) sampler;
    Executor.add_work work ~vm:0 ~replayed:!fed;
    let n_matched = Array.fold_left ( + ) 0 matched in
    if n_matched = 0 then None
    else begin
      let counters = Memsim.Hierarchy.counters h in
      let raw_cycles =
        float_of_int (Memsim.Counters.accesses counters + counters.Memsim.Counters.stall_cycles)
      in
      let factor =
        match sampler with
        | Some s ->
          Memsim.Sampling.factor s
          *. Executor.suffix_factor
               ~warm:(if suffix then warm else 0)
               ~fed:(Memsim.Sampling.fed s)
        | None -> 1.0
      in
      if factor <> 1.0 then Memsim.Counters.extrapolate counters factor;
      let sim_s = Unix_time.now () -. t0 in
      let m0 =
        Executor.finish machine kernel ~n ~counters ~stats:t.stats
          ~timings:{ Executor.compile_s = 0.0; exec_s = 0.0; sim_s }
      in
      (* Cycles per innermost iteration, in raw (unextrapolated)
         counter units — the shift one unit of prefetch distance
         applies to every slack. *)
      let c_iter = raw_cycles /. float_of_int (max 1 !n_iter) in
      (* Summed latest sample first, the order the estimates were
         pinned in. *)
      let stall_at bkt dd =
        let acc = ref 0.0 in
        for j = n_slacks.(bkt) - 1 downto 0 do
          let s' = float_of_int slacks.(bkt).(j) +. (float_of_int dd *. c_iter) in
          acc := !acc +. Float.max 0.0 (-.s')
        done;
        !acc
      in
      let d0 = Array.of_list (List.map (fun a -> List.assoc a plans.(0)) vary) in
      let base_stall = Array.init nb (fun bkt -> stall_at bkt 0) in
      let est =
        Array.map
          (fun plan ->
            let delta = ref 0.0 in
            List.iteri
              (fun bkt a ->
                let dd = List.assoc a plan - d0.(bkt) in
                if dd <> 0 then
                  delta := !delta +. (stall_at bkt dd -. base_stall.(bkt)))
              vary;
            if !delta = 0.0 then Executor.cycles m0
            else
              Executor.cycles m0 +. (!delta *. factor *. m0.Executor.scale))
          plans
      in
      let best = ref 0 in
      Array.iteri (fun i e -> if e < est.(!best) then best := i) est;
      let out = Array.make k None in
      out.(0) <- Some m0;
      if !best <> 0 then begin
        let mb =
          (measure_plans ?sampling ?work machine kernel ~n t
             ~plans:[| plans.(!best) |]).(0)
        in
        out.(!best) <- Some mb
      end;
      let measured = if !best = 0 then 1 else 2 in
      Some
        { rp_measurements = out; rp_estimated = k - measured; rp_joint = nb > 1 }
    end
