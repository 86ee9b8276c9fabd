type t = {
  machine : Machine.t;
  caches : Cache.t array;
  hit_cycles : int array;
  tlb : Tlb.t;
  counters : Counters.t;
  mem_latency : int;
}

let create (m : Machine.t) =
  {
    machine = m;
    caches = Array.of_list (List.map Cache.create m.Machine.caches);
    hit_cycles =
      Array.of_list (List.map (fun c -> c.Machine.hit_cycles) m.Machine.caches);
    tlb = Tlb.create m.Machine.tlb;
    counters = Counters.create ~levels:(List.length m.Machine.caches) ();
    mem_latency = m.Machine.memory_latency_cycles;
  }

let machine t = t.machine
let counters t = t.counters
let now t = Counters.accesses t.counters + t.counters.stall_cycles
let cache t i = t.caches.(i)
let tlb t = t.tlb

let count_miss t level =
  let m = t.counters.Counters.misses in
  m.(level) <- m.(level) + 1

let count_hit t level =
  let h = t.counters.Counters.hits in
  h.(level) <- h.(level) + 1

(* Latency to deliver [addr] to level [level-1], allocating the line at
   every level it missed in.  [ready_base] is the cycle the request was
   issued; lines are installed with fill time [ready_base + returned
   latency] (the caller charges or hides that latency). *)
let rec service t ~level ~now ~addr ~dirty =
  if level >= Array.length t.caches then t.mem_latency
  else
    let cache = t.caches.(level) in
    let line = Cache.line_of_addr cache addr in
    match Cache.lookup cache ~now ~line with
    | Cache.Hit ready ->
      count_hit t level;
      t.hit_cycles.(level) + max 0 (ready - now)
    | Cache.Miss ->
      count_miss t level;
      let below = service t ~level:(level + 1) ~now ~addr ~dirty:false in
      let latency = t.hit_cycles.(level) + below in
      let evicted_dirty =
        Cache.insert cache ~now ~ready:(now + latency) ~dirty ~line
      in
      if evicted_dirty then begin
        t.counters.Counters.writebacks <- t.counters.Counters.writebacks + 1;
        (* Propagate the dirty data to the next level if resident there. *)
        if level + 1 < Array.length t.caches then
          Cache.set_dirty t.caches.(level + 1) ~line:(Cache.line_of_addr t.caches.(level + 1) addr)
      end;
      latency

let translate t ~addr =
  let page = Tlb.page_of_addr t.tlb addr in
  Tlb.access t.tlb ~page

let demand t ~addr ~write =
  let c = t.counters in
  if write then c.Counters.stores <- c.Counters.stores + 1
  else c.Counters.loads <- c.Counters.loads + 1;
  if not (translate t ~addr) then begin
    c.Counters.tlb_misses <- c.Counters.tlb_misses + 1;
    c.Counters.stall_cycles <-
      c.Counters.stall_cycles + t.machine.Machine.tlb.Machine.miss_cycles
  end;
  let now = now t in
  let l1 = t.caches.(0) in
  let line = Cache.line_of_addr l1 addr in
  (match Cache.lookup l1 ~now ~line with
  | Cache.Hit ready ->
    count_hit t 0;
    if ready > now then
      c.Counters.stall_cycles <- c.Counters.stall_cycles + (ready - now)
  | Cache.Miss ->
    count_miss t 0;
    let below = service t ~level:1 ~now ~addr ~dirty:false in
    c.Counters.stall_cycles <- c.Counters.stall_cycles + below;
    let evicted_dirty = Cache.insert l1 ~now ~ready:now ~dirty:write ~line in
    if evicted_dirty then begin
      c.Counters.writebacks <- c.Counters.writebacks + 1;
      if Array.length t.caches > 1 then
        Cache.set_dirty t.caches.(1) ~line:(Cache.line_of_addr t.caches.(1) addr)
    end);
  if write then Cache.set_dirty l1 ~line

let load t addr = demand t ~addr ~write:false
let store t addr = demand t ~addr ~write:true

let prefetch t addr =
  let c = t.counters in
  (* A prefetch occupies a memory issue slot and is counted as a load by
     the hardware counters (Table 1: mm5's loads exceed mm4's by the
     prefetch count). *)
  c.Counters.loads <- c.Counters.loads + 1;
  c.Counters.prefetches <- c.Counters.prefetches + 1;
  let page = Tlb.page_of_addr t.tlb addr in
  (* Dropped on TLB miss, like the R10000's pref instruction; the probe
     does not install a translation. *)
  if not (Tlb.probe t.tlb ~page) then ()
  else begin
    let now = now t in
    let l1 = t.caches.(0) in
    let line = Cache.line_of_addr l1 addr in
    match Cache.lookup l1 ~now ~line with
    | Cache.Hit _ -> ()
    | Cache.Miss ->
      count_miss t 0;
      let below = service t ~level:1 ~now ~addr ~dirty:false in
      c.Counters.prefetch_hidden_cycles <-
        c.Counters.prefetch_hidden_cycles + below;
      let evicted_dirty =
        Cache.insert l1 ~now ~ready:(now + below) ~dirty:false ~line
      in
      if evicted_dirty then begin
        c.Counters.writebacks <- c.Counters.writebacks + 1;
        if Array.length t.caches > 1 then
          Cache.set_dirty t.caches.(1)
            ~line:(Cache.line_of_addr t.caches.(1) addr)
      end
  end

(* Batched replay of a packed event buffer ([Ir.Sink.pack] encoding):
   one tight loop over [buf.(pos .. pos+len-1)] with the per-access
   closure dispatch, variant allocations and redundant L1 re-probes of
   [sink]-driven simulation removed.  Counter and cache evolution is
   identical to feeding the same events through {!load}/{!store}/
   {!prefetch} (the [memsim] test suite checks this): the only
   structural difference is skipping the trailing [Cache.set_dirty] on
   a demand-write miss, where [insert ~dirty:true] has already marked
   the line. *)
let replay_packed t buf ~pos ~len =
  let c = t.counters in
  let l1 = t.caches.(0) in
  let tlb = t.tlb in
  let multi = Array.length t.caches > 1 in
  let tlb_miss_cycles = t.machine.Machine.tlb.Machine.miss_cycles in
  for k = pos to pos + len - 1 do
    let v = Array.unsafe_get buf k in
    let addr = v lsr 2 in
    let tag = v land 3 in
    if tag <> Ir.Sink.tag_prefetch then begin
      let write = tag = Ir.Sink.tag_store in
      if write then c.Counters.stores <- c.Counters.stores + 1
      else c.Counters.loads <- c.Counters.loads + 1;
      let page = Tlb.page_of_addr tlb addr in
      if not (Tlb.access tlb ~page) then begin
        c.Counters.tlb_misses <- c.Counters.tlb_misses + 1;
        c.Counters.stall_cycles <- c.Counters.stall_cycles + tlb_miss_cycles
      end;
      let now = c.Counters.loads + c.Counters.stores + c.Counters.stall_cycles in
      let line = Cache.line_of_addr l1 addr in
      let fill = Cache.access l1 ~line ~write in
      if fill <> Cache.absent then begin
        count_hit t 0;
        if fill > now then
          c.Counters.stall_cycles <- c.Counters.stall_cycles + (fill - now)
      end
      else begin
        count_miss t 0;
        let below = service t ~level:1 ~now ~addr ~dirty:false in
        c.Counters.stall_cycles <- c.Counters.stall_cycles + below;
        let evicted_dirty = Cache.insert l1 ~now ~ready:now ~dirty:write ~line in
        if evicted_dirty then begin
          c.Counters.writebacks <- c.Counters.writebacks + 1;
          if multi then
            Cache.set_dirty t.caches.(1)
              ~line:(Cache.line_of_addr t.caches.(1) addr)
        end
      end
    end
    else begin
      c.Counters.loads <- c.Counters.loads + 1;
      c.Counters.prefetches <- c.Counters.prefetches + 1;
      let page = Tlb.page_of_addr tlb addr in
      if Tlb.probe tlb ~page then begin
        let now =
          c.Counters.loads + c.Counters.stores + c.Counters.stall_cycles
        in
        let line = Cache.line_of_addr l1 addr in
        if Cache.access l1 ~line ~write:false = Cache.absent then begin
          count_miss t 0;
          let below = service t ~level:1 ~now ~addr ~dirty:false in
          c.Counters.prefetch_hidden_cycles <-
            c.Counters.prefetch_hidden_cycles + below;
          let evicted_dirty =
            Cache.insert l1 ~now ~ready:(now + below) ~dirty:false ~line
          in
          if evicted_dirty then begin
            c.Counters.writebacks <- c.Counters.writebacks + 1;
            if multi then
              Cache.set_dirty t.caches.(1)
                ~line:(Cache.line_of_addr t.caches.(1) addr)
          end
        end
      end
    end
  done

(* State-only service for the warm-up pass: same lookup/insert/dirty
   sequence as {!service} (so LRU ticks and residency evolve
   identically), no latency arithmetic or counters.  Fill times are
   arbitrary here because [reset_counters] settles them before anything
   is measured. *)
let rec warm_service t ~level ~addr =
  if level < Array.length t.caches then begin
    let cache = t.caches.(level) in
    let line = Cache.line_of_addr cache addr in
    match Cache.lookup cache ~now:0 ~line with
    | Cache.Hit _ -> ()
    | Cache.Miss ->
      warm_service t ~level:(level + 1) ~addr;
      let evicted_dirty =
        Cache.insert cache ~now:0 ~ready:0 ~dirty:false ~line
      in
      if evicted_dirty && level + 1 < Array.length t.caches then
        Cache.set_dirty t.caches.(level + 1)
          ~line:(Cache.line_of_addr t.caches.(level + 1) addr)
  end

(* Replay that evolves cache/TLB state but keeps no accounting: the
   warm-up prefix of a sampled measurement, whose counters are thrown
   away by the [reset_counters] that follows.  Performs exactly the
   probe/insert sequence of {!replay_packed} (residency, LRU and dirty
   state end up identical — the [vm] differential suite checks the
   measured pass downstream), skipping the stall/latency bookkeeping,
   which is most of the per-event work on the hit path. *)
let warm_packed t buf ~pos ~len =
  let l1 = t.caches.(0) in
  let tlb = t.tlb in
  let multi = Array.length t.caches > 1 in
  for k = pos to pos + len - 1 do
    let v = Array.unsafe_get buf k in
    let addr = v lsr 2 in
    let tag = v land 3 in
    if tag <> Ir.Sink.tag_prefetch then begin
      let write = tag = Ir.Sink.tag_store in
      ignore (Tlb.access tlb ~page:(Tlb.page_of_addr tlb addr));
      let line = Cache.line_of_addr l1 addr in
      if Cache.access l1 ~line ~write = Cache.absent then begin
        warm_service t ~level:1 ~addr;
        let evicted_dirty = Cache.insert l1 ~now:0 ~ready:0 ~dirty:write ~line in
        if evicted_dirty && multi then
          Cache.set_dirty t.caches.(1)
            ~line:(Cache.line_of_addr t.caches.(1) addr)
      end
    end
    else if Tlb.probe tlb ~page:(Tlb.page_of_addr tlb addr) then begin
      let line = Cache.line_of_addr l1 addr in
      if Cache.access l1 ~line ~write:false = Cache.absent then begin
        warm_service t ~level:1 ~addr;
        let evicted_dirty =
          Cache.insert l1 ~now:0 ~ready:0 ~dirty:false ~line
        in
        if evicted_dirty && multi then
          Cache.set_dirty t.caches.(1)
            ~line:(Cache.line_of_addr t.caches.(1) addr)
      end
    end
  done

(* --- Structure-of-arrays batched replay ------------------------------

   The prefetch sweep feeds ONE shared demand stream to K plan states.
   Driving that through K per-hierarchy replays touches five mutable
   record fields per plan per event; for K beyond ~16 the per-plan
   counter records defeat the cache.  [Batch] splits the hot
   counters (loads / stores / stall / L1 hits / prefetches — the ones
   every event updates) into flat int arrays indexed by plan, so the
   K-plan inner loop is a strided walk over five contiguous arrays with
   the decoded event, line and page number computed once per event.
   Cold counters (level misses, TLB misses, writebacks,
   prefetch-hidden cycles and the level >= 1 hit/miss tallies of
   {!service}) stay in the per-plan {!Counters.t} records and are only
   touched out of line on the miss paths.

   Invariant: per plan, the arithmetic is a verbatim transliteration of
   one {!replay_packed} iteration over the same event sequence, so
   counters after {!Batch.sync} are bit-identical to replaying that
   plan's stream on its own (the replay test suite checks structural
   equality).  While a batch is live, its
   plans' hot counter fields in {!Counters.t} are STALE — every feed
   must go through the [Batch] functions, and {!Batch.sync} must run
   before the records are read. *)
let no_slack = min_int

module Batch = struct
  type hierarchy = t

  type t = {
    hs : hierarchy array;
    k : int;
    l1s : Cache.t array;
    tlbs : Tlb.t array;
    b_loads : int array;
    b_stores : int array;
    b_stall : int array;
    b_hit0 : int array;
    b_prefs : int array;
    tlb_miss_cycles : int;
    multi : bool;
  }

  let create hs =
    let k = Array.length hs in
    if k = 0 then invalid_arg "Hierarchy.Batch.create: empty batch";
    let l1s = Array.map (fun t -> t.caches.(0)) hs in
    let tlbs = Array.map (fun t -> t.tlb) hs in
    (* The shared once-per-event line/page decode requires uniform
       geometry across the pool. *)
    Array.iter
      (fun t ->
        if
          Cache.line_bytes t.caches.(0) <> Cache.line_bytes hs.(0).caches.(0)
          || Tlb.page_bytes t.tlb <> Tlb.page_bytes hs.(0).tlb
        then invalid_arg "Hierarchy.Batch.create: mixed machine geometry")
      hs;
    {
      hs;
      k;
      l1s;
      tlbs;
      b_loads = Array.map (fun t -> t.counters.Counters.loads) hs;
      b_stores = Array.map (fun t -> t.counters.Counters.stores) hs;
      b_stall = Array.map (fun t -> t.counters.Counters.stall_cycles) hs;
      b_hit0 = Array.map (fun t -> t.counters.Counters.hits.(0)) hs;
      b_prefs = Array.map (fun t -> t.counters.Counters.prefetches) hs;
      tlb_miss_cycles = hs.(0).machine.Machine.tlb.Machine.miss_cycles;
      multi = Array.length hs.(0).caches > 1;
    }

  let size b = b.k

  let sync b =
    for i = 0 to b.k - 1 do
      let c = b.hs.(i).counters in
      c.Counters.loads <- b.b_loads.(i);
      c.Counters.stores <- b.b_stores.(i);
      c.Counters.stall_cycles <- b.b_stall.(i);
      c.Counters.prefetches <- b.b_prefs.(i);
      c.Counters.hits.(0) <- b.b_hit0.(i)
    done

  let reset_counters b =
    Array.iter
      (fun t ->
        Array.iter Cache.settle t.caches;
        Counters.reset t.counters)
      b.hs;
    Array.fill b.b_loads 0 b.k 0;
    Array.fill b.b_stores 0 b.k 0;
    Array.fill b.b_stall 0 b.k 0;
    Array.fill b.b_hit0 0 b.k 0;
    Array.fill b.b_prefs 0 b.k 0

  (* Cold paths, out of line so the hot loops stay small. *)

  let tlb_refill b i =
    let t = Array.unsafe_get b.hs i in
    t.counters.Counters.tlb_misses <- t.counters.Counters.tlb_misses + 1;
    Array.unsafe_set b.b_stall i
      (Array.unsafe_get b.b_stall i + b.tlb_miss_cycles)

  let demand_miss b i ~now ~addr ~write ~line =
    let t = Array.unsafe_get b.hs i in
    count_miss t 0;
    let below = service t ~level:1 ~now ~addr ~dirty:false in
    Array.unsafe_set b.b_stall i (Array.unsafe_get b.b_stall i + below);
    let evicted_dirty =
      Cache.insert (Array.unsafe_get b.l1s i) ~now ~ready:now ~dirty:write ~line
    in
    if evicted_dirty then begin
      t.counters.Counters.writebacks <- t.counters.Counters.writebacks + 1;
      if b.multi then
        Cache.set_dirty t.caches.(1) ~line:(Cache.line_of_addr t.caches.(1) addr)
    end

  let prefetch_miss b i ~now ~addr ~line =
    let t = Array.unsafe_get b.hs i in
    count_miss t 0;
    let below = service t ~level:1 ~now ~addr ~dirty:false in
    t.counters.Counters.prefetch_hidden_cycles <-
      t.counters.Counters.prefetch_hidden_cycles + below;
    let evicted_dirty =
      Cache.insert
        (Array.unsafe_get b.l1s i)
        ~now ~ready:(now + below) ~dirty:false ~line
    in
    if evicted_dirty then begin
      t.counters.Counters.writebacks <- t.counters.Counters.writebacks + 1;
      if b.multi then
        Cache.set_dirty t.caches.(1) ~line:(Cache.line_of_addr t.caches.(1) addr)
    end

  let warm_miss b i ~addr ~write ~line =
    let t = Array.unsafe_get b.hs i in
    warm_service t ~level:1 ~addr;
    let evicted_dirty =
      Cache.insert (Array.unsafe_get b.l1s i) ~now:0 ~ready:0 ~dirty:write ~line
    in
    if evicted_dirty && b.multi then
      Cache.set_dirty t.caches.(1) ~line:(Cache.line_of_addr t.caches.(1) addr)

  (* One shared event run through every plan: decode, line and page
     once; then a branch-light, allocation-free walk over the K plans'
     flat counters. *)
  let replay_all b buf ~pos ~len =
    let k = b.k in
    let loads = b.b_loads
    and stores = b.b_stores
    and stall = b.b_stall
    and hit0 = b.b_hit0 in
    let l1s = b.l1s and tlbs = b.tlbs in
    let l1g = Array.unsafe_get l1s 0 and tlbg = Array.unsafe_get tlbs 0 in
    for e = pos to pos + len - 1 do
      let v = Array.unsafe_get buf e in
      let addr = v lsr 2 in
      let tag = v land 3 in
      let line = Cache.line_of_addr l1g addr in
      let page = Tlb.page_of_addr tlbg addr in
      if tag <> Ir.Sink.tag_prefetch then begin
        let write = tag = Ir.Sink.tag_store in
        let cnt = if write then stores else loads in
        for i = 0 to k - 1 do
          Array.unsafe_set cnt i (Array.unsafe_get cnt i + 1);
          if not (Tlb.access (Array.unsafe_get tlbs i) ~page) then
            tlb_refill b i;
          let now =
            Array.unsafe_get loads i + Array.unsafe_get stores i
            + Array.unsafe_get stall i
          in
          let fill = Cache.access (Array.unsafe_get l1s i) ~line ~write in
          if fill <> Cache.absent then begin
            Array.unsafe_set hit0 i (Array.unsafe_get hit0 i + 1);
            if fill > now then
              Array.unsafe_set stall i (Array.unsafe_get stall i + (fill - now))
          end
          else demand_miss b i ~now ~addr ~write ~line
        done
      end
      else begin
        let prefs = b.b_prefs in
        for i = 0 to k - 1 do
          Array.unsafe_set loads i (Array.unsafe_get loads i + 1);
          Array.unsafe_set prefs i (Array.unsafe_get prefs i + 1);
          if Tlb.probe (Array.unsafe_get tlbs i) ~page then begin
            let now =
              Array.unsafe_get loads i + Array.unsafe_get stores i
              + Array.unsafe_get stall i
            in
            if
              Cache.access (Array.unsafe_get l1s i) ~line ~write:false
              = Cache.absent
            then prefetch_miss b i ~now ~addr ~line
          end
        done
      end
    done

  (* One event for plan [i] only (per-plan prefetch emissions, sampled
     segments, the repricer's base-plan walk): one [replay_packed]
     iteration against the flat counters.  Returns the timing feedback
     the incremental repricer reads: for a demand L1 hit, [now - fill]
     (negative = the stall paid); for an issued prefetch, 0;
     [no_slack] for a demand miss or a prefetch dropped on a TLB
     miss. *)
  let replay_one b i v =
    let addr = v lsr 2 in
    let tag = v land 3 in
    let l1 = Array.unsafe_get b.l1s i in
    let tlb = Array.unsafe_get b.tlbs i in
    let line = Cache.line_of_addr l1 addr in
    if tag <> Ir.Sink.tag_prefetch then begin
      let write = tag = Ir.Sink.tag_store in
      (if write then
         Array.unsafe_set b.b_stores i (Array.unsafe_get b.b_stores i + 1)
       else Array.unsafe_set b.b_loads i (Array.unsafe_get b.b_loads i + 1));
      if not (Tlb.access tlb ~page:(Tlb.page_of_addr tlb addr)) then
        tlb_refill b i;
      let now =
        Array.unsafe_get b.b_loads i
        + Array.unsafe_get b.b_stores i
        + Array.unsafe_get b.b_stall i
      in
      let fill = Cache.access l1 ~line ~write in
      if fill <> Cache.absent then begin
        Array.unsafe_set b.b_hit0 i (Array.unsafe_get b.b_hit0 i + 1);
        if fill > now then
          Array.unsafe_set b.b_stall i
            (Array.unsafe_get b.b_stall i + (fill - now));
        now - fill
      end
      else begin
        demand_miss b i ~now ~addr ~write ~line;
        no_slack
      end
    end
    else begin
      Array.unsafe_set b.b_loads i (Array.unsafe_get b.b_loads i + 1);
      Array.unsafe_set b.b_prefs i (Array.unsafe_get b.b_prefs i + 1);
      if Tlb.probe tlb ~page:(Tlb.page_of_addr tlb addr) then begin
        let now =
          Array.unsafe_get b.b_loads i
          + Array.unsafe_get b.b_stores i
          + Array.unsafe_get b.b_stall i
        in
        if Cache.access l1 ~line ~write:false = Cache.absent then
          prefetch_miss b i ~now ~addr ~line;
        0
      end
      else no_slack
    end

  let replay_range b i buf ~pos ~len =
    for e = pos to pos + len - 1 do
      ignore (replay_one b i (Array.unsafe_get buf e))
    done

  (* Warm variants: no counters are involved.  The shared form hoists
     the decode; the per-plan range delegates to [warm_packed]. *)
  let warm_all b buf ~pos ~len =
    let k = b.k in
    let l1s = b.l1s and tlbs = b.tlbs in
    let l1g = Array.unsafe_get l1s 0 and tlbg = Array.unsafe_get tlbs 0 in
    for e = pos to pos + len - 1 do
      let v = Array.unsafe_get buf e in
      let addr = v lsr 2 in
      let tag = v land 3 in
      let line = Cache.line_of_addr l1g addr in
      let page = Tlb.page_of_addr tlbg addr in
      if tag <> Ir.Sink.tag_prefetch then begin
        let write = tag = Ir.Sink.tag_store in
        for i = 0 to k - 1 do
          ignore (Tlb.access (Array.unsafe_get tlbs i) ~page);
          if Cache.access (Array.unsafe_get l1s i) ~line ~write = Cache.absent
          then warm_miss b i ~addr ~write ~line
        done
      end
      else
        for i = 0 to k - 1 do
          if Tlb.probe (Array.unsafe_get tlbs i) ~page then
            if
              Cache.access (Array.unsafe_get l1s i) ~line ~write:false
              = Cache.absent
            then warm_miss b i ~addr ~write:false ~line
        done
    done

  let warm_one b i v =
    let addr = v lsr 2 in
    let tag = v land 3 in
    let l1 = Array.unsafe_get b.l1s i in
    let tlb = Array.unsafe_get b.tlbs i in
    let line = Cache.line_of_addr l1 addr in
    if tag <> Ir.Sink.tag_prefetch then begin
      let write = tag = Ir.Sink.tag_store in
      ignore (Tlb.access tlb ~page:(Tlb.page_of_addr tlb addr));
      if Cache.access l1 ~line ~write = Cache.absent then
        warm_miss b i ~addr ~write ~line
    end
    else if Tlb.probe tlb ~page:(Tlb.page_of_addr tlb addr) then
      if Cache.access l1 ~line ~write:false = Cache.absent then
        warm_miss b i ~addr ~write:false ~line

  let warm_range b i buf ~pos ~len = warm_packed b.hs.(i) buf ~pos ~len
end

(* Sampled replay: the sampler decides, window by window, whether the
   next run of events is measured ([replay_packed]), replayed
   state-only to re-warm residency ([warm_packed] — safe here because
   LRU is tick-based and the [ready:0] fills it installs are already
   in the past relative to the monotonically growing counter clock),
   or skipped.  The caller extrapolates the counters by
   [Sampling.factor]. *)
let replay_sampled t sampler buf ~pos ~len =
  let p = ref pos in
  let remaining = ref len in
  while !remaining > 0 do
    let action, k = Sampling.take sampler !remaining in
    (match action with
    | Sampling.Measure -> replay_packed t buf ~pos:!p ~len:k
    | Sampling.Warm -> warm_packed t buf ~pos:!p ~len:k
    | Sampling.Drop -> ());
    p := !p + k;
    remaining := !remaining - k
  done

let sink t =
  {
    Ir.Sink.load = (fun addr -> load t addr);
    Ir.Sink.store = (fun addr -> store t addr);
    Ir.Sink.prefetch = (fun addr -> prefetch t addr);
  }

let reset t =
  Array.iter Cache.reset t.caches;
  Tlb.reset t.tlb;
  Counters.reset t.counters

let reset_counters t =
  Array.iter Cache.settle t.caches;
  Counters.reset t.counters
