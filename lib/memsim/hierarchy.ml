(* The cache and TLB models live in this compilation unit, next to the
   replay loops, so that the per-event probe inlines into every loop:
   dune's dev profile compiles libraries [-opaque], under which a call
   into another module is an out-of-line [caml_applyN] and nothing can be
   inlined across the boundary.  [Cache] and [Tlb] re-export them. *)

module Cache = struct
  (* Each way is four consecutive words of [ways]: the tag (-1 =
     invalid), the LRU stamp (larger = more recent), the cycle at which
     the line's data arrives, and the dirty bit (0 or 1).  A hit reads
     and writes one way's words, which share a host cache line. *)
  let tag = 0
  let stamp = 1
  let fill = 2
  let dirty = 3
  let way_words = 4

  type t = {
    sets : int;
    line_bytes : int;
    line_shift : int;
    set_mask : int;
    set_words : int;  (* assoc * way_words *)
    ways : int array;
    mutable tick : int;
  }

  type lookup = Hit of int | Miss

  let is_pow2 n = n > 0 && n land (n - 1) = 0

  let log2 n =
    let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
    go 0 n

  let reset c =
    let ways = c.ways in
    for w = 0 to (Array.length ways / way_words) - 1 do
      let s = w * way_words in
      Array.unsafe_set ways (s + tag) (-1);
      Array.unsafe_set ways (s + stamp) 0;
      Array.unsafe_set ways (s + fill) 0;
      Array.unsafe_set ways (s + dirty) 0
    done;
    c.tick <- 0

  let create (c : Machine.cache) =
    let lines = c.Machine.size_bytes / c.Machine.line_bytes in
    let sets = lines / c.Machine.assoc in
    if not (is_pow2 sets) then
      invalid_arg
        (Printf.sprintf "Cache.create: %s has %d sets (must be a power of two)"
           c.Machine.name sets);
    if not (is_pow2 c.Machine.line_bytes) then
      invalid_arg "Cache.create: line size must be a power of two";
    let t =
      {
        sets;
        line_bytes = c.Machine.line_bytes;
        line_shift = log2 c.Machine.line_bytes;
        set_mask = sets - 1;
        set_words = c.Machine.assoc * way_words;
        ways = Array.make (sets * c.Machine.assoc * way_words) 0;
        tick = 0;
      }
    in
    reset t;
    t

  let sets c = c.sets
  let line_bytes c = c.line_bytes
  let[@inline] line_of_addr c addr = addr lsr c.line_shift

  (* The way holding [line] (the index of its first word), or -1.  A
     line occupies at most one way ([insert] only runs on a miss), so
     the scan stops at the first match; the first way is checked before
     the loop, which is all a direct-mapped cache needs. *)
  let[@inline] find c line =
    let ways = c.ways in
    let base = (line land c.set_mask) * c.set_words in
    if Array.unsafe_get ways base = line then base
    else begin
      let stop = base + c.set_words in
      let i = ref (base + way_words) in
      while !i < stop && Array.unsafe_get ways !i <> line do
        i := !i + way_words
      done;
      if !i < stop then !i else -1
    end

  (* A hit on way [w] makes it the set's most recent. *)
  let[@inline] touch c w =
    let tick = c.tick + 1 in
    c.tick <- tick;
    Array.unsafe_set c.ways (w + stamp) tick

  let[@inline] fill_of c w = Array.unsafe_get c.ways (w + fill)

  (* What {!probe} returns on a miss. *)
  let absent = min_int

  (* The replay loops' L1 probe: on a hit, update LRU state, mark the
     line dirty on a write and return its fill cycle; on a miss, return
     [absent] and change nothing (the caller inserts with the right
     dirty bit).  [lookup] followed by [set_dirty], without the [Hit]
     allocation. *)
  let[@inline] probe c ~line ~write =
    let w = find c line in
    if w < 0 then absent
    else begin
      touch c w;
      if write then Array.unsafe_set c.ways (w + dirty) 1;
      fill_of c w
    end

  let lookup c ~now:_ ~line =
    let w = find c line in
    if w < 0 then Miss
    else begin
      touch c w;
      Hit (fill_of c w)
    end

  let insert c ~now:_ ~ready ~dirty:d ~line =
    let ways = c.ways in
    let base = (line land c.set_mask) * c.set_words in
    let stop = base + c.set_words in
    (* The first invalid way wins outright (any invalid way is as good as
       another, so scanning on is wasted work); otherwise evict the LRU
       way, earliest index winning stamp ties. *)
    let victim = ref (-1) in
    let lru = ref base in
    let lru_stamp = ref max_int in
    let w = ref base in
    while !victim < 0 && !w < stop do
      if ways.(!w + tag) = -1 then victim := !w
      else begin
        if ways.(!w + stamp) < !lru_stamp then begin
          lru := !w;
          lru_stamp := ways.(!w + stamp)
        end;
        w := !w + way_words
      end
    done;
    let w = if !victim >= 0 then !victim else !lru in
    let evicted_dirty = ways.(w + tag) <> -1 && ways.(w + dirty) = 1 in
    c.tick <- c.tick + 1;
    ways.(w + tag) <- line;
    ways.(w + stamp) <- c.tick;
    ways.(w + fill) <- ready;
    ways.(w + dirty) <- Bool.to_int d;
    evicted_dirty

  let set_dirty c ~line =
    let w = find c line in
    if w >= 0 then Array.unsafe_set c.ways (w + dirty) 1

  let resident c ~line = find c line >= 0

  let settle c =
    let ways = c.ways in
    for w = 0 to (Array.length ways / way_words) - 1 do
      Array.unsafe_set ways ((w * way_words) + fill) 0
    done

  let occupancy c =
    let n = ref 0 in
    for w = 0 to (Array.length c.ways / way_words) - 1 do
      if c.ways.((w * way_words) + tag) <> -1 then incr n
    done;
    !n
end

module Tlb = struct
  type t = {
    entries : int;
    page_shift : int;
    slots : int array;  (* ring buffer of resident pages; -1 = empty *)
    keys : int array;  (* open-addressing hash set of resident pages *)
    mask : int;
    mutable next : int;
    mutable last_page : int;  (* MRU fast path *)
  }

  let create (g : Machine.tlb) =
    (* The resident set is probed on every simulated access, so it is an
       open-addressing table kept at most quarter-full: pages hash by
       identity (working sets are contiguous page runs, which distribute
       perfectly) and linear probing rarely moves past the home slot. *)
    let size =
      let rec go s = if s >= 4 * g.Machine.entries then s else go (2 * s) in
      go 16
    in
    {
      entries = g.Machine.entries;
      page_shift = Cache.log2 g.Machine.page_bytes;
      slots = Array.make g.Machine.entries (-1);
      keys = Array.make size (-1);
      mask = size - 1;
      next = 0;
      last_page = -1;
    }

  let[@inline] page_of_addr t addr = addr lsr t.page_shift

  (* Whether [page] is on the probe chain that starts at slot [i]. *)
  let chain_mem keys mask page i =
    let i = ref i in
    while
      let k = Array.unsafe_get keys !i in
      k <> page && k <> -1
    do
      i := (!i + 1) land mask
    done;
    Array.unsafe_get keys !i = page

  (* The home slot inline; the rare collision chain out of line. *)
  let[@inline] mem t page =
    let keys = t.keys and mask = t.mask in
    let i = page land mask in
    let k = Array.unsafe_get keys i in
    k = page || (k <> -1 && chain_mem keys mask page ((i + 1) land mask))

  let add t page =
    let keys = t.keys and mask = t.mask in
    let i = ref (page land mask) in
    while Array.unsafe_get keys !i <> -1 do
      i := (!i + 1) land mask
    done;
    Array.unsafe_set keys !i page

  (* Backward-shift deletion: refill the hole left at the removed slot by
     sliding later chain members whose home slot lies at or before the
     hole, so [mem]'s stop-at-empty probe stays correct. *)
  let remove t page =
    let keys = t.keys and mask = t.mask in
    let hole = ref (page land mask) in
    while keys.(!hole) <> page do
      hole := (!hole + 1) land mask
    done;
    keys.(!hole) <- -1;
    let j = ref !hole in
    let scanning = ref true in
    while !scanning do
      j := (!j + 1) land mask;
      let k = keys.(!j) in
      if k = -1 then scanning := false
      else if (!j - (k land mask)) land mask >= (!j - !hole) land mask
      then begin
        keys.(!hole) <- k;
        keys.(!j) <- -1;
        hole := !j
      end
    done

  (* A miss: bring [page] in, evicting the oldest entry when full. *)
  let refill t page =
    let victim = t.slots.(t.next) in
    if victim <> -1 then remove t victim;
    t.slots.(t.next) <- page;
    add t page;
    t.next <- (t.next + 1) mod t.entries;
    t.last_page <- page

  let[@inline] access t ~page =
    if page = t.last_page then true
    else if mem t page then begin
      t.last_page <- page;
      true
    end
    else begin
      refill t page;
      false
    end

  let[@inline] probe t ~page = page = t.last_page || mem t page

  let reset t =
    Array.fill t.slots 0 t.entries (-1);
    Array.fill t.keys 0 (t.mask + 1) (-1);
    t.next <- 0;
    t.last_page <- -1

  let occupancy t =
    Array.fold_left (fun acc k -> if k = -1 then acc else acc + 1) 0 t.keys
end

type t = {
  caches : Cache.t array;
  l1 : Cache.t;  (* caches.(0) *)
  hit_cycles : int array;
  tlb : Tlb.t;
  tlb_miss_cycles : int;
  counters : Counters.t;
  mem_latency : int;
}

let create (m : Machine.t) =
  let caches = Array.of_list (List.map Cache.create m.Machine.caches) in
  {
    caches;
    l1 = caches.(0);
    hit_cycles =
      Array.of_list (List.map (fun c -> c.Machine.hit_cycles) m.Machine.caches);
    tlb = Tlb.create m.Machine.tlb;
    tlb_miss_cycles = m.Machine.tlb.Machine.miss_cycles;
    counters = Counters.create ~levels:(List.length m.Machine.caches) ();
    mem_latency = m.Machine.memory_latency_cycles;
  }

let counters t = t.counters
let now t = Counters.accesses t.counters + t.counters.stall_cycles
let cache t i = t.caches.(i)

let count_miss t level =
  let m = t.counters.Counters.misses in
  m.(level) <- m.(level) + 1

let count_hit t level =
  let h = t.counters.Counters.hits in
  h.(level) <- h.(level) + 1

(* A dirty line evicted from [level] marks the line of [addr] dirty in
   the level below, when resident there. *)
let spill t ~level addr =
  let below = level + 1 in
  if below < Array.length t.caches then
    let c = Array.unsafe_get t.caches below in
    Cache.set_dirty c ~line:(Cache.line_of_addr c addr)

let write_back t ~level addr =
  t.counters.Counters.writebacks <- t.counters.Counters.writebacks + 1;
  spill t ~level addr

(* Latency to deliver [addr] to level [level-1], allocating the line at
   every level it missed in.  [now] is the cycle the request was issued;
   lines are installed with fill time [now + returned latency] (the
   caller charges or hides that latency). *)
let rec service t ~level ~now ~addr ~dirty =
  if level >= Array.length t.caches then t.mem_latency
  else
    let cache = Array.unsafe_get t.caches level in
    let line = Cache.line_of_addr cache addr in
    let i = Cache.find cache line in
    if i >= 0 then begin
      Cache.touch cache i;
      count_hit t level;
      let ready = Cache.fill_of cache i in
      t.hit_cycles.(level) + if ready > now then ready - now else 0
    end
    else begin
      count_miss t level;
      let below = service t ~level:(level + 1) ~now ~addr ~dirty:false in
      let latency = t.hit_cycles.(level) + below in
      if Cache.insert cache ~now ~ready:(now + latency) ~dirty ~line then
        write_back t ~level addr;
      latency
    end

let translate t ~addr =
  let page = Tlb.page_of_addr t.tlb addr in
  Tlb.access t.tlb ~page

let demand t ~addr ~write =
  let c = t.counters in
  if write then c.Counters.stores <- c.Counters.stores + 1
  else c.Counters.loads <- c.Counters.loads + 1;
  if not (translate t ~addr) then begin
    c.Counters.tlb_misses <- c.Counters.tlb_misses + 1;
    c.Counters.stall_cycles <- c.Counters.stall_cycles + t.tlb_miss_cycles
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

(* --- Packed replay --------------------------------------------------

   Every replay entry point below runs the same per-event step on packed
   events ([Ir.Sink.pack] encoding): decode, check the TLB, probe L1 and
   account a hit, all inline ([Tlb.access]/[Tlb.probe] and [Cache.probe]
   are [@inline] and live in this unit), with the hot counters in locals
   ([replay_one], fed one event, keeps them in the record).  Misses
   leave the loop for one allocation-free
   [demand_miss]/[prefetch_miss] (measured) or [warm_miss] (state-only).
   Counter and cache evolution is identical to feeding the same events
   through {!load}/{!store}/{!prefetch} (the [vm] and [replay] suites
   check this on every machine): the only structural difference is
   skipping the trailing [Cache.set_dirty] on a demand-write miss, where
   [insert ~dirty:write] has already marked the line. *)

let tag_store = Ir.Sink.tag_store
let tag_prefetch = Ir.Sink.tag_prefetch

(* A demand access missed L1 at cycle [now]: fetch the line from below,
   install it and return the stall. *)
let demand_miss t ~now ~addr ~line ~write =
  count_miss t 0;
  let below = service t ~level:1 ~now ~addr ~dirty:false in
  if Cache.insert t.l1 ~now ~ready:now ~dirty:write ~line then
    write_back t ~level:0 addr;
  below

(* A prefetch missed L1 at cycle [now]: the fill is in flight for the
   latency below, which later demand accesses may partly pay. *)
let prefetch_miss t ~now ~addr ~line =
  count_miss t 0;
  let below = service t ~level:1 ~now ~addr ~dirty:false in
  let c = t.counters in
  c.Counters.prefetch_hidden_cycles <-
    c.Counters.prefetch_hidden_cycles + below;
  if Cache.insert t.l1 ~now ~ready:(now + below) ~dirty:false ~line then
    write_back t ~level:0 addr

let replay_packed t buf ~pos ~len =
  let c = t.counters in
  let l1 = t.l1 and tlb = t.tlb and tlb_miss_cycles = t.tlb_miss_cycles in
  let loads = ref c.Counters.loads
  and stores = ref c.Counters.stores
  and prefetches = ref c.Counters.prefetches
  and stall = ref c.Counters.stall_cycles
  and hit0 = ref c.Counters.hits.(0)
  and tlb_misses = ref c.Counters.tlb_misses in
  for k = pos to pos + len - 1 do
    let v = Array.unsafe_get buf k in
    let addr = v lsr 2 in
    let tag = v land 3 in
    let page = Tlb.page_of_addr tlb addr in
    let line = Cache.line_of_addr l1 addr in
    if tag <> tag_prefetch then begin
      let write = tag = tag_store in
      if write then incr stores else incr loads;
      if not (Tlb.access tlb ~page) then begin
        incr tlb_misses;
        stall := !stall + tlb_miss_cycles
      end;
      let now = !loads + !stores + !stall in
      let fill = Cache.probe l1 ~line ~write in
      if fill <> Cache.absent then begin
        incr hit0;
        if fill > now then stall := !stall + (fill - now)
      end
      else stall := !stall + demand_miss t ~now ~addr ~line ~write
    end
    else begin
      incr loads;
      incr prefetches;
      if Tlb.probe tlb ~page then begin
        let now = !loads + !stores + !stall in
        if Cache.probe l1 ~line ~write:false = Cache.absent then
          prefetch_miss t ~now ~addr ~line
      end
    end
  done;
  c.Counters.loads <- !loads;
  c.Counters.stores <- !stores;
  c.Counters.prefetches <- !prefetches;
  c.Counters.stall_cycles <- !stall;
  c.Counters.hits.(0) <- !hit0;
  c.Counters.tlb_misses <- !tlb_misses

(* State-only service for the warm-up pass: the lookup/insert/dirty
   sequence of {!service} (so LRU ticks and residency evolve
   identically), without latency arithmetic or counters.  Fill times
   are arbitrary here because [reset_counters] settles them before
   anything is measured. *)
let rec warm_service t ~level ~addr =
  if level < Array.length t.caches then begin
    let cache = Array.unsafe_get t.caches level in
    let line = Cache.line_of_addr cache addr in
    let i = Cache.find cache line in
    if i >= 0 then Cache.touch cache i
    else begin
      warm_service t ~level:(level + 1) ~addr;
      if Cache.insert cache ~now:0 ~ready:0 ~dirty:false ~line then
        spill t ~level addr
    end
  end

let warm_miss t ~addr ~line ~write =
  warm_service t ~level:1 ~addr;
  if Cache.insert t.l1 ~now:0 ~ready:0 ~dirty:write ~line then
    spill t ~level:0 addr

(* One event, state only: exactly the probe/insert sequence of the
   measured step, without the stall bookkeeping. *)
let[@inline] warm_step t ~addr ~tag =
  let l1 = t.l1 and tlb = t.tlb in
  let line = Cache.line_of_addr l1 addr in
  let page = Tlb.page_of_addr tlb addr in
  if tag <> tag_prefetch then begin
    let write = tag = tag_store in
    ignore (Tlb.access tlb ~page);
    if Cache.probe l1 ~line ~write = Cache.absent then
      warm_miss t ~addr ~line ~write
  end
  else if
    Tlb.probe tlb ~page && Cache.probe l1 ~line ~write:false = Cache.absent
  then warm_miss t ~addr ~line ~write:false

(* Replay that evolves cache/TLB state but keeps no accounting: the
   warm-up prefix of a sampled measurement, whose counters are thrown
   away by the [reset_counters] that follows.  Residency, LRU and dirty
   state end up identical to {!replay_packed}'s. *)
let warm_packed t buf ~pos ~len =
  for k = pos to pos + len - 1 do
    let v = Array.unsafe_get buf k in
    warm_step t ~addr:(v lsr 2) ~tag:(v land 3)
  done

(* One event, fed on its own, with the timing feedback the incremental
   prefetch re-pricer records: {!replay_packed}'s step with the counters
   in the record rather than in locals. *)
let no_slack = min_int

let replay_one t v =
  let c = t.counters in
  let addr = v lsr 2 and tag = v land 3 in
  let page = Tlb.page_of_addr t.tlb addr in
  let line = Cache.line_of_addr t.l1 addr in
  if tag <> tag_prefetch then begin
    let write = tag = tag_store in
    if write then c.Counters.stores <- c.Counters.stores + 1
    else c.Counters.loads <- c.Counters.loads + 1;
    if not (Tlb.access t.tlb ~page) then begin
      c.Counters.tlb_misses <- c.Counters.tlb_misses + 1;
      c.Counters.stall_cycles <- c.Counters.stall_cycles + t.tlb_miss_cycles
    end;
    let now = c.Counters.loads + c.Counters.stores + c.Counters.stall_cycles in
    let fill = Cache.probe t.l1 ~line ~write in
    if fill <> Cache.absent then begin
      c.Counters.hits.(0) <- c.Counters.hits.(0) + 1;
      if fill > now then
        c.Counters.stall_cycles <- c.Counters.stall_cycles + (fill - now);
      now - fill
    end
    else begin
      let miss = demand_miss t ~now ~addr ~line ~write in
      c.Counters.stall_cycles <- c.Counters.stall_cycles + miss;
      no_slack
    end
  end
  else begin
    c.Counters.loads <- c.Counters.loads + 1;
    c.Counters.prefetches <- c.Counters.prefetches + 1;
    if Tlb.probe t.tlb ~page then begin
      let now =
        c.Counters.loads + c.Counters.stores + c.Counters.stall_cycles
      in
      if Cache.probe t.l1 ~line ~write:false = Cache.absent then
        prefetch_miss t ~now ~addr ~line;
      0
    end
    else no_slack
  end

let warm_one t v = warm_step t ~addr:(v lsr 2) ~tag:(v land 3)

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
    let k = Sampling.take sampler !remaining in
    (match Sampling.action sampler with
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
