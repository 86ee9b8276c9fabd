(* Bytecode VM: the measurement fast path.  Compiles a fully-bound
   program once into flat int arrays and replays it in a tight loop.
   Semantics (statement order, evaluation order, budget behaviour,
   spill rules, address computation) mirror the closure interpreter in
   exec.ml exactly — the differential test suite holds the two
   bit-identical.

   In address-only mode each innermost loop compiles to one [op_leaf]
   instruction ([run_leaf]): the loop's touches are affine in its
   variable, so their packed events are evaluated once at loop entry
   and strength-reduced to one add per event per iteration. *)

module Buf = struct
  type t = { mutable a : int array; mutable len : int }

  let create ?(capacity = 4096) () = { a = Array.make (max 1 capacity) 0; len = 0 }
  let clear t = t.len <- 0
  let length t = t.len
  let data t = t.a

  let grow t =
    let bigger = Array.make (2 * Array.length t.a) 0 in
    Array.blit t.a 0 bigger 0 t.len;
    t.a <- bigger

  let push t v =
    if t.len = Array.length t.a then grow t;
    Array.unsafe_set t.a t.len v;
    t.len <- t.len + 1

  (* Room for [n] more values without a further [grow]. *)
  let reserve t n = while t.len + n > Array.length t.a do grow t done
end

(* Opcodes (code array). *)
let op_halt = 0
let op_flops = 1 (* [op; n] *)
let op_move = 2 (* [op] *)
let op_touch = 3 (* [op; aff]  affine pre-packed: ((base+o) lsl 5) lor tag *)
let op_loop = 4 (* [op; slot; step; lo_pc; hi_pc; end_pc; mark_id] *)
let op_end = 5 (* [op; loop_pc] *)
let op_leaf = 17 (* [op; leaf]  a whole innermost loop, address-only *)

(* Compute-mode opcodes (float stack machine). *)
let op_fconst = 6 (* [op; fidx] *)
let op_floadh = 7 (* [op; aff; d; pbase]  pbase = (base lsl 5) lor tag *)
let op_floadr = 8 (* [op; aff; d] *)
let op_fneg = 9 (* [op] *)
let op_fadd = 10 (* [op] *)
let op_fsub = 11 (* [op] *)
let op_fmul = 12 (* [op] *)
let op_fdiv = 13 (* [op] *)
let op_fstoreh = 14 (* [op; aff; d; pbase] *)
let op_fstorer = 15 (* [op; aff; d] *)
let op_prefh = 16 (* [op; aff; pbase] *)

(* Loop-bound opcodes (bcode array, RPN). *)
let b_aff = 0 (* [op; aff] *)
let b_min = 1
let b_max = 2
let b_add = 3
let b_floormult = 4 (* [op; k] *)
let b_ret = 5

(* One innermost loop of an address-only program.  Every touch of its
   body is affine in the loop variable, so an iteration's packed
   events are the previous iteration's plus a per-touch stride. *)
type leaf = {
  l_slot : int;
  l_step : int;
  l_lo : int;  (* bcode pc of the lower bound *)
  l_hi : int;  (* bcode pc of the upper bound *)
  l_mark : int;  (* mark id, -1 without marks *)
  l_affs : int array;  (* each touch's pre-packed affine, body order *)
  l_strides : int array;
      (* each touch's event increment per iteration: the loop
         variable's (shifted) coefficient times the step *)
  l_cur : int array;  (* scratch: each touch's event this iteration *)
  l_flops : int;  (* flops per iteration *)
  l_moves : int;  (* register moves per iteration *)
  l_checked : bool;  (* some statement counts flops, so checks budgets *)
  l_stmts : int array;
      (* the body statement by statement, for an iteration that crosses
         the warm-up or flop budget: pairs [flops; touches], with flops
         -1 for a register move and -2 for a prefetch (neither counts
         flops nor checks a budget) *)
}

type t = {
  code : int array;
  bcode : int array;
  leaves : leaf array;
  (* Affine table: value j = aconst.(j) + sum over k in
     [aoff.(j), aoff.(j)+alen.(j)) of acoef.(k) * env.(aslot.(k)). *)
  aconst : int array;
  aoff : int array;
  alen : int array;
  aslot : int array;
  acoef : int array;
  fconsts : float array;
  data : float array array;  (* per declaration; [||] entries in fast mode *)
  masters : float array array;  (* pristine copies, re-blitted each run *)
  heap_arrays : (string * int) list;  (* heap decls, declaration order *)
  spilled : int;
  mark_slots : int array array;
  (* Mutable scratch (one runner at a time). *)
  env : int array;
  f_slot : int array;
  f_step : int array;
  f_hi : int array;
  f_body_pc : int array;
  f_mark : int array;
  bstack : int array;
  fstack : float array;
}

let mark_slots t = t.mark_slots
let spilled t = t.spilled

let arrays t = List.map (fun (name, d) -> (name, t.data.(d))) t.heap_arrays

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let compile ?(compute = false) ?(marks = false) ?register_budget ~params
    (p : Program.t) =
  (match Program.validate p with
  | [] -> ()
  | errs ->
    invalid_arg
      (Printf.sprintf "Vm.compile: invalid program %s: %s" p.Program.name
         (String.concat "; " errs)));
  let loop_vars = Stmt.loop_vars p.Program.body in
  let slot_of = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace slot_of v i) loop_vars;
  let param_value x =
    match List.assoc_opt x params with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Vm.compile: unbound parameter %s" x)
  in
  let placements, spilled =
    Exec.placements ~with_data:compute ?register_budget ~params p
  in
  let placement_of name =
    List.find (fun pl -> pl.Exec.name = name) placements
  in
  let code = Buf.create ~capacity:256 () in
  let bcode = Buf.create ~capacity:64 () in
  let aconst = Buf.create ~capacity:64 () in
  let aoff = Buf.create ~capacity:64 () in
  let alen = Buf.create ~capacity:64 () in
  let aslot = Buf.create ~capacity:64 () in
  let acoef = Buf.create ~capacity:64 () in
  let fconsts = ref [] and n_fconsts = ref 0 in
  let intern_fconst c =
    fconsts := c :: !fconsts;
    incr n_fconsts;
    !n_fconsts - 1
  in
  (* Intern an affine expression: parameter terms fold into the
     constant, loop-variable terms read the environment.  [shift] and
     [tag] pre-pack the packed-event encoding for fast-mode touches. *)
  let intern_aff ?(shift = 0) ?(tag = 0) ?(base = 0) (a : Aff.t) =
    let const = ref (Aff.const_part a) in
    let terms =
      List.filter_map
        (fun (c, x) ->
          match Hashtbl.find_opt slot_of x with
          | Some slot -> Some (slot, c)
          | None ->
            const := !const + (c * param_value x);
            None)
        (Aff.terms a)
    in
    let j = Buf.length aconst in
    Buf.push aconst (((base + !const) lsl shift) lor tag);
    Buf.push aoff (Buf.length aslot);
    Buf.push alen (List.length terms);
    List.iter
      (fun (slot, c) ->
        Buf.push aslot slot;
        Buf.push acoef (c lsl shift))
      terms;
    j
  in
  let fold_offset (r : Reference.t) =
    let pl = placement_of r.Reference.array in
    let offset =
      List.fold_left2
        (fun acc idx stride -> Aff.add acc (Aff.scale stride idx))
        Aff.zero r.Reference.idx pl.Exec.strides
    in
    (pl, offset)
  in
  (* Loop bounds: RPN programs in [bcode]. *)
  let bexp_depth = ref 1 in
  let emit_bexp_prog (b : Bexp.t) =
    let start = Buf.length bcode in
    let rec emit depth b =
      bexp_depth := max !bexp_depth depth;
      match b with
      | Bexp.Aff a ->
        Buf.push bcode b_aff;
        Buf.push bcode (intern_aff a)
      | Bexp.Min (x, y) ->
        emit depth x;
        emit (depth + 1) y;
        Buf.push bcode b_min
      | Bexp.Max (x, y) ->
        emit depth x;
        emit (depth + 1) y;
        Buf.push bcode b_max
      | Bexp.Add (x, y) ->
        emit depth x;
        emit (depth + 1) y;
        Buf.push bcode b_add
      | Bexp.Floor_mult (x, k) ->
        emit depth x;
        Buf.push bcode b_floormult;
        Buf.push bcode k
    in
    emit 1 b;
    Buf.push bcode b_ret;
    start
  in
  (* In exec.ml [is_register_ref] is [not in_memory && data != [||]];
     the interpreter always allocates data, so it reduces to
     [not in_memory] — which also holds with [with_data:false]. *)
  let is_register_ref (r : Reference.t) =
    not (placement_of r.Reference.array).Exec.in_memory
  in
  (* Fast mode: the pre-packed affines of an access's event. *)
  let touch_aff ~tag (r : Reference.t) =
    let pl, offset = fold_offset r in
    if pl.Exec.in_memory then
      Some (intern_aff ~shift:5 ~tag ~base:pl.Exec.base offset)
    else None
  in
  (* ... of an assignment's events: the right-hand side's loads in the
     closure interpreter's right-to-left evaluation order
     ([fa () +. fb ()] evaluates [fb] first), then the store. *)
  let assign_touches lhs rhs =
    let rec loads acc (e : Fexpr.t) =
      match e with
      | Fexpr.Ref r -> (
        match touch_aff ~tag:Sink.tag_load r with
        | Some j -> j :: acc
        | None -> acc)
      | Fexpr.Const _ -> acc
      | Fexpr.Neg x -> loads acc x
      | Fexpr.Bin (_, a, b) -> loads (loads acc b) a
    in
    let acc = loads [] rhs in
    List.rev
      (match touch_aff ~tag:Sink.tag_store lhs with
      | Some j -> j :: acc
      | None -> acc)
  in
  let emit_touch j =
    Buf.push code op_touch;
    Buf.push code j
  in
  (* Compute mode: float stack machine, same evaluation order. *)
  let data_index =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun i pl -> Hashtbl.replace tbl pl.Exec.name i) placements;
    fun name -> Hashtbl.find tbl name
  in
  let fexpr_depth = ref 1 in
  let rec emit_fexpr depth (e : Fexpr.t) =
    fexpr_depth := max !fexpr_depth depth;
    match e with
    | Fexpr.Ref r ->
      let pl, offset = fold_offset r in
      if pl.Exec.in_memory then begin
        Buf.push code op_floadh;
        Buf.push code (intern_aff offset);
        Buf.push code (data_index r.Reference.array);
        Buf.push code ((pl.Exec.base lsl 5) lor Sink.tag_load)
      end
      else begin
        Buf.push code op_floadr;
        Buf.push code (intern_aff offset);
        Buf.push code (data_index r.Reference.array)
      end
    | Fexpr.Const c ->
      Buf.push code op_fconst;
      Buf.push code (intern_fconst c)
    | Fexpr.Neg x ->
      emit_fexpr depth x;
      Buf.push code op_fneg
    | Fexpr.Bin (op, a, b) ->
      emit_fexpr depth b;
      emit_fexpr (depth + 1) a;
      Buf.push code
        (match op with
        | Fexpr.Add -> op_fadd
        | Fexpr.Sub -> op_fsub
        | Fexpr.Mul -> op_fmul
        | Fexpr.Div -> op_fdiv)
  in
  let emit_store (lhs : Reference.t) =
    let pl, offset = fold_offset lhs in
    if pl.Exec.in_memory then begin
      Buf.push code op_fstoreh;
      Buf.push code (intern_aff offset);
      Buf.push code (data_index lhs.Reference.array);
      Buf.push code ((pl.Exec.base lsl 5) lor Sink.tag_store)
    end
    else begin
      Buf.push code op_fstorer;
      Buf.push code (intern_aff offset);
      Buf.push code (data_index lhs.Reference.array)
    end
  in
  (* Iteration marks: slots feeding the folded offsets of the
     in-memory references of an innermost loop body. *)
  let mark_slot_lists = ref [] and n_marks = ref 0 in
  let body_mark_slots body =
    let slots = ref [] in
    List.iter
      (fun r ->
        let pl, offset = fold_offset r in
        if pl.Exec.in_memory then
          List.iter
            (fun (_, x) ->
              match Hashtbl.find_opt slot_of x with
              | Some s when not (List.mem s !slots) -> slots := s :: !slots
              | _ -> ())
            (Aff.terms offset))
      (Stmt.all_refs body);
    Array.of_list (List.sort compare !slots)
  in
  let is_innermost body =
    not (List.exists (function Stmt.Loop _ -> true | _ -> false) body)
  in
  (* A register-to-register copy: counted as a move, never as flops. *)
  let is_move lhs rhs =
    Fexpr.flops rhs = 0
    &&
    match rhs with
    | Fexpr.Ref r -> is_register_ref r && is_register_ref lhs
    | _ -> false
  in
  (* Fast mode: one innermost loop as a [leaf].  [aslot]/[acoef] hold
     each touch's terms, so its stride is read off its own affine. *)
  let leaves = ref [] and n_leaves = ref 0 in
  let compile_leaf (l : Stmt.loop) ~lo_pc ~hi_pc ~mark_id =
    let slot = Hashtbl.find slot_of l.Stmt.var in
    let affs = ref [] and stmts = ref [] in
    let flops = ref 0 and moves = ref 0 and checked = ref false in
    let add kind touches =
      stmts := List.length touches :: kind :: !stmts;
      affs := List.rev_append touches !affs
    in
    List.iter
      (function
        | Stmt.Assign (lhs, rhs) when is_move lhs rhs ->
          incr moves;
          add (-1) []
        | Stmt.Assign (lhs, rhs) ->
          let n = Fexpr.flops rhs in
          flops := !flops + n;
          checked := true;
          add n (assign_touches lhs rhs)
        | Stmt.Prefetch r -> (
          match touch_aff ~tag:Sink.tag_prefetch r with
          | Some j -> add (-2) [ j ]
          | None -> ())
        | Stmt.Loop _ -> assert false)
      l.Stmt.body;
    let affs = Array.of_list (List.rev !affs) in
    let stride j =
      let o = (Buf.data aoff).(j) in
      let c = ref 0 in
      for k = o to o + (Buf.data alen).(j) - 1 do
        if (Buf.data aslot).(k) = slot then c := !c + (Buf.data acoef).(k)
      done;
      !c * l.Stmt.step
    in
    leaves :=
      {
        l_slot = slot;
        l_step = l.Stmt.step;
        l_lo = lo_pc;
        l_hi = hi_pc;
        l_mark = mark_id;
        l_affs = affs;
        l_strides = Array.map stride affs;
        l_cur = Array.make (Array.length affs) 0;
        l_flops = !flops;
        l_moves = !moves;
        l_checked = !checked;
        l_stmts = Array.of_list (List.rev !stmts);
      }
      :: !leaves;
    incr n_leaves;
    Buf.push code op_leaf;
    Buf.push code (!n_leaves - 1)
  in
  let max_depth = ref 0 in
  let rec emit_stmt depth (s : Stmt.t) =
    match s with
    | Stmt.Assign (lhs, rhs) ->
      if is_move lhs rhs then Buf.push code op_move
      else begin
        Buf.push code op_flops;
        Buf.push code (Fexpr.flops rhs)
      end;
      if compute then begin
        emit_fexpr 1 rhs;
        emit_store lhs
      end
      else List.iter emit_touch (assign_touches lhs rhs)
    | Stmt.Prefetch r ->
      let pl, offset = fold_offset r in
      if pl.Exec.in_memory then
        if compute then begin
          Buf.push code op_prefh;
          Buf.push code (intern_aff offset);
          Buf.push code ((pl.Exec.base lsl 5) lor Sink.tag_prefetch)
        end
        else Option.iter emit_touch (touch_aff ~tag:Sink.tag_prefetch r)
    | Stmt.Loop l ->
      (* The interpreter evaluates [hi] before [lo] at loop entry. *)
      let hi_pc = emit_bexp_prog l.Stmt.hi in
      let lo_pc = emit_bexp_prog l.Stmt.lo in
      let innermost = is_innermost l.Stmt.body in
      let mark_id =
        if marks && innermost then begin
          mark_slot_lists := body_mark_slots l.Stmt.body :: !mark_slot_lists;
          incr n_marks;
          !n_marks - 1
        end
        else -1
      in
      if innermost && not compute then compile_leaf l ~lo_pc ~hi_pc ~mark_id
      else emit_loop depth l ~lo_pc ~hi_pc ~mark_id
  and emit_loop depth (l : Stmt.loop) ~lo_pc ~hi_pc ~mark_id =
    max_depth := max !max_depth depth;
    let loop_pc = Buf.length code in
    Buf.push code op_loop;
    Buf.push code (Hashtbl.find slot_of l.Stmt.var);
    Buf.push code l.Stmt.step;
    Buf.push code lo_pc;
    Buf.push code hi_pc;
    let end_patch = Buf.length code in
    Buf.push code 0;
    Buf.push code mark_id;
    List.iter (emit_stmt (depth + 1)) l.Stmt.body;
    Buf.push code op_end;
    Buf.push code loop_pc;
    (Buf.data code).(end_patch) <- Buf.length code
  in
  List.iter (emit_stmt 1) p.Program.body;
  Buf.push code op_halt;
  let data = Array.of_list (List.map (fun pl -> pl.Exec.data) placements) in
  let masters = Array.map Array.copy data in
  let heap_arrays =
    List.filter_map
      (fun pl ->
        match (Program.find_decl_exn p pl.Exec.name).Decl.storage with
        | Decl.Heap -> Some (pl.Exec.name, data_index pl.Exec.name)
        | Decl.Register -> None)
      placements
  in
  let sub b = Array.sub (Buf.data b) 0 (Buf.length b) in
  {
    code = sub code;
    bcode = sub bcode;
    leaves = Array.of_list (List.rev !leaves);
    aconst = sub aconst;
    aoff = sub aoff;
    alen = sub alen;
    aslot = sub aslot;
    acoef = sub acoef;
    fconsts = Array.of_list (List.rev !fconsts);
    data;
    masters;
    heap_arrays;
    spilled;
    mark_slots = Array.of_list (List.rev !mark_slot_lists);
    env = Array.make (max 1 (List.length loop_vars)) 0;
    f_slot = Array.make (max 1 !max_depth) 0;
    f_step = Array.make (max 1 !max_depth) 0;
    f_hi = Array.make (max 1 !max_depth) 0;
    f_body_pc = Array.make (max 1 !max_depth) 0;
    f_mark = Array.make (max 1 !max_depth) 0;
    bstack = Array.make (!bexp_depth + 1) 0;
    fstack = Array.make (!fexpr_depth + 1) 0.0;
  }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* How many whole iterations of [per] flops each keep a run at [flops]
   flops within [limit]: every statement's running total stays at or
   below [limit], so none of them crosses it. *)
let within ~flops ~per limit =
  if flops > limit then 0
  else if per = 0 then max_int
  else (limit - flops) / per

let imin (a : int) b = if a < b then a else b

type run = {
  stats : Exec.stats;
  events : int array;
  n_events : int;
  marks : int array;
  n_marks : int;
  cut_events : int;
  cut_marks : int;
}

let run ?flop_budget ?warm_budget ?events ?marks t =
  let ev = match events with Some b -> Buf.clear b; b | None -> Buf.create () in
  let mk =
    match marks with Some b -> Buf.clear b; b | None -> Buf.create ~capacity:64 ()
  in
  let budget = match flop_budget with None -> max_int | Some b -> b in
  let warm = match warm_budget with None -> max_int | Some w -> w in
  let code = t.code and bcode = t.bcode in
  let aconst = t.aconst
  and aoff = t.aoff
  and alen = t.alen
  and aslot = t.aslot
  and acoef = t.acoef in
  let env = t.env in
  Array.fill env 0 (Array.length env) 0;
  Array.iteri (fun i m -> Array.blit m 0 t.data.(i) 0 (Array.length m)) t.masters;
  let halt_pc = Array.length code - 1 in
  let eval_aff j =
    let o = Array.unsafe_get aoff j in
    match Array.unsafe_get alen j with
    | 0 -> Array.unsafe_get aconst j
    | 1 ->
      Array.unsafe_get aconst j
      + (Array.unsafe_get acoef o * Array.unsafe_get env (Array.unsafe_get aslot o))
    | 2 ->
      Array.unsafe_get aconst j
      + (Array.unsafe_get acoef o * Array.unsafe_get env (Array.unsafe_get aslot o))
      + Array.unsafe_get acoef (o + 1)
        * Array.unsafe_get env (Array.unsafe_get aslot (o + 1))
    | n ->
      let acc = ref (Array.unsafe_get aconst j) in
      for k = o to o + n - 1 do
        acc :=
          !acc
          + (Array.unsafe_get acoef k
            * Array.unsafe_get env (Array.unsafe_get aslot k))
      done;
      !acc
  in
  let bstack = t.bstack in
  let eval_bexp start =
    let pc = ref start and sp = ref 0 in
    let result = ref 0 in
    let running = ref true in
    while !running do
      let op = Array.unsafe_get bcode !pc in
      if op = b_aff then begin
        bstack.(!sp) <- eval_aff bcode.(!pc + 1);
        incr sp;
        pc := !pc + 2
      end
      else if op = b_ret then begin
        result := bstack.(!sp - 1);
        running := false
      end
      else if op = b_floormult then begin
        let k = bcode.(!pc + 1) in
        let v = bstack.(!sp - 1) in
        bstack.(!sp - 1) <-
          k * (if v >= 0 then v / k else -(((-v) + k - 1) / k));
        pc := !pc + 2
      end
      else begin
        let y = bstack.(!sp - 1) and x = bstack.(!sp - 2) in
        bstack.(!sp - 2) <-
          (if op = b_min then min x y else if op = b_max then max x y else x + y);
        decr sp;
        pc := !pc + 1
      end
    done;
    !result
  in
  let f_slot = t.f_slot
  and f_step = t.f_step
  and f_hi = t.f_hi
  and f_body_pc = t.f_body_pc
  and f_mark = t.f_mark in
  let fstack = t.fstack and data = t.data and fconsts = t.fconsts in
  let sp = ref 0 and fsp = ref 0 in
  let flops = ref 0 and iters = ref 0 and moves = ref 0 in
  let completed = ref true in
  let cut_e = ref (-1) and cut_m = ref (-1) in
  let record_mark mark_id =
    Buf.push mk mark_id;
    Buf.push mk ev.Buf.len;
    let slots = t.mark_slots.(mark_id) in
    for i = 0 to Array.length slots - 1 do
      Buf.push mk env.(slots.(i))
    done
  in
  (* One statement of an iteration, as the general loop runs it: count
     its flops, take the warm-up cut and halt at the flop budget where
     its flops cross them, then emit its [nk] events from [cur.(k ..)].
     [false] when the flop budget halted the run before the events. *)
  let leaf_stmt f cur k nk =
    if f >= 0 then begin
      flops := !flops + f;
      if !flops > warm && !cut_e = -1 then begin
        cut_e := ev.Buf.len;
        cut_m := mk.Buf.len
      end
    end
    else if f = -1 then incr moves;
    if f >= 0 && !flops > budget then false
    else begin
      for j = k to k + nk - 1 do
        Buf.push ev (Array.unsafe_get cur j)
      done;
      true
    end
  in
  (* A whole innermost loop.  Runs of iterations whose flops stay
     within both budgets are emitted in bulk: each touch's event is
     stored and advanced by its stride, and the counters move once per
     run.  The iteration that crosses the warm-up or flop budget runs
     statement by statement ([leaf_stmt]), so events, cut, marks and
     stats are those of the general loop.  [true] when the flop budget
     halted the run. *)
  let run_leaf (lf : leaf) =
    let hi = eval_bexp lf.l_hi in
    let lo = eval_bexp lf.l_lo in
    if lo > hi then false
    else begin
      let slot = lf.l_slot and step = lf.l_step and mark = lf.l_mark in
      let affs = lf.l_affs and strides = lf.l_strides and cur = lf.l_cur in
      let nt = Array.length affs in
      env.(slot) <- lo;
      for k = 0 to nt - 1 do
        Array.unsafe_set cur k (eval_aff (Array.unsafe_get affs k))
      done;
      let i = ref lo and halted = ref false in
      while (not !halted) && !i <= hi do
        let remaining = ((hi - !i) / step) + 1 in
        let bulk =
          if not lf.l_checked then remaining
          else
            let by_budget = within ~flops:!flops ~per:lf.l_flops budget in
            if !cut_e = -1 then
              imin by_budget (within ~flops:!flops ~per:lf.l_flops warm)
            else by_budget
        in
        let bulk = imin bulk remaining in
        if bulk > 0 then begin
          Buf.reserve ev (bulk * nt);
          if mark < 0 then begin
            let a = ev.Buf.a and p = ref ev.Buf.len in
            for _ = 1 to bulk do
              for k = 0 to nt - 1 do
                let v = Array.unsafe_get cur k in
                Array.unsafe_set a (!p + k) v;
                Array.unsafe_set cur k (v + Array.unsafe_get strides k)
              done;
              p := !p + nt
            done;
            ev.Buf.len <- !p
          end
          else
            for b = 0 to bulk - 1 do
              env.(slot) <- !i + (b * step);
              record_mark mark;
              let a = ev.Buf.a and p = ev.Buf.len in
              for k = 0 to nt - 1 do
                let v = Array.unsafe_get cur k in
                Array.unsafe_set a (p + k) v;
                Array.unsafe_set cur k (v + Array.unsafe_get strides k)
              done;
              ev.Buf.len <- p + nt
            done;
          flops := !flops + (bulk * lf.l_flops);
          moves := !moves + (bulk * lf.l_moves);
          iters := !iters + bulk;
          i := !i + (bulk * step)
        end;
        if bulk < remaining then begin
          env.(slot) <- !i;
          incr iters;
          if mark >= 0 then record_mark mark;
          let stmts = lf.l_stmts in
          let s = ref 0 and k = ref 0 in
          while (not !halted) && !s < Array.length stmts do
            let nk = Array.unsafe_get stmts (!s + 1) in
            if leaf_stmt (Array.unsafe_get stmts !s) cur !k nk then begin
              k := !k + nk;
              s := !s + 2
            end
            else halted := true
          done;
          if not !halted then begin
            for k = 0 to nt - 1 do
              Array.unsafe_set cur k
                (Array.unsafe_get cur k + Array.unsafe_get strides k)
            done;
            i := !i + step
          end
        end
      done;
      if not !halted then env.(slot) <- !i - step;
      !halted
    end
  in
  let leaves = t.leaves in
  let pc = ref 0 in
  let running = ref true in
  while !running do
    let op = Array.unsafe_get code !pc in
    if op = op_leaf then begin
      if run_leaf (Array.unsafe_get leaves (Array.unsafe_get code (!pc + 1)))
      then begin
        completed := false;
        pc := halt_pc
      end
      else pc := !pc + 2
    end
    else if op = op_touch then begin
      (* Hottest opcode: emit one pre-packed event. *)
      let v = eval_aff (Array.unsafe_get code (!pc + 1)) in
      if ev.Buf.len = Array.length ev.Buf.a then Buf.grow ev;
      Array.unsafe_set ev.Buf.a ev.Buf.len v;
      ev.Buf.len <- ev.Buf.len + 1;
      pc := !pc + 2
    end
    else if op = op_flops then begin
      flops := !flops + Array.unsafe_get code (!pc + 1);
      if !flops > warm && !cut_e = -1 then begin
        cut_e := ev.Buf.len;
        cut_m := mk.Buf.len
      end;
      if !flops > budget then begin
        completed := false;
        pc := halt_pc
      end
      else pc := !pc + 2
    end
    else if op = op_end then begin
      let f = !sp - 1 in
      let slot = Array.unsafe_get f_slot f in
      let i = Array.unsafe_get env slot + Array.unsafe_get f_step f in
      if i <= Array.unsafe_get f_hi f then begin
        Array.unsafe_set env slot i;
        incr iters;
        let m = Array.unsafe_get f_mark f in
        if m >= 0 then record_mark m;
        pc := Array.unsafe_get f_body_pc f
      end
      else begin
        sp := f;
        pc := !pc + 2
      end
    end
    else if op = op_loop then begin
      let hi = eval_bexp code.(!pc + 4) in
      let lo = eval_bexp code.(!pc + 3) in
      if lo > hi then pc := code.(!pc + 5)
      else begin
        let slot = code.(!pc + 1) in
        let f = !sp in
        f_slot.(f) <- slot;
        f_step.(f) <- code.(!pc + 2);
        f_hi.(f) <- hi;
        f_body_pc.(f) <- !pc + 7;
        f_mark.(f) <- code.(!pc + 6);
        sp := f + 1;
        env.(slot) <- lo;
        incr iters;
        let m = code.(!pc + 6) in
        if m >= 0 then record_mark m;
        pc := !pc + 7
      end
    end
    else if op = op_move then begin
      incr moves;
      pc := !pc + 1
    end
    else if op = op_halt then running := false
    else if op = op_floadh then begin
      let o = eval_aff code.(!pc + 1) in
      Buf.push ev (code.(!pc + 3) + (o lsl 5));
      fstack.(!fsp) <- Array.unsafe_get data.(code.(!pc + 2)) o;
      incr fsp;
      pc := !pc + 4
    end
    else if op = op_floadr then begin
      let o = eval_aff code.(!pc + 1) in
      fstack.(!fsp) <- Array.unsafe_get data.(code.(!pc + 2)) o;
      incr fsp;
      pc := !pc + 3
    end
    else if op = op_fstoreh then begin
      let o = eval_aff code.(!pc + 1) in
      Buf.push ev (code.(!pc + 3) + (o lsl 5));
      decr fsp;
      Array.unsafe_set data.(code.(!pc + 2)) o fstack.(!fsp);
      pc := !pc + 4
    end
    else if op = op_fstorer then begin
      let o = eval_aff code.(!pc + 1) in
      decr fsp;
      Array.unsafe_set data.(code.(!pc + 2)) o fstack.(!fsp);
      pc := !pc + 3
    end
    else if op = op_fconst then begin
      fstack.(!fsp) <- fconsts.(code.(!pc + 1));
      incr fsp;
      pc := !pc + 2
    end
    else if op = op_fneg then begin
      fstack.(!fsp - 1) <- -.fstack.(!fsp - 1);
      pc := !pc + 1
    end
    else if op = op_prefh then begin
      let o = eval_aff code.(!pc + 1) in
      Buf.push ev (code.(!pc + 2) + (o lsl 5));
      pc := !pc + 3
    end
    else begin
      (* Binary float op: x (top of stack) is the left operand, as in
         [fa () op fb ()] with right-to-left operand evaluation. *)
      let x = fstack.(!fsp - 1) and y = fstack.(!fsp - 2) in
      fstack.(!fsp - 2) <-
        (if op = op_fadd then x +. y
         else if op = op_fsub then x -. y
         else if op = op_fmul then x *. y
         else x /. y);
      decr fsp;
      pc := !pc + 1
    end
  done;
  if warm_budget <> None && !cut_e = -1 then begin
    cut_e := ev.Buf.len;
    cut_m := mk.Buf.len
  end;
  {
    stats =
      {
        Exec.flops = !flops;
        loop_iterations = !iters;
        register_moves = !moves;
        spilled_scalars = t.spilled;
        completed = !completed;
      };
    events = ev.Buf.a;
    n_events = ev.Buf.len;
    marks = mk.Buf.a;
    n_marks = mk.Buf.len;
    cut_events = !cut_e;
    cut_marks = !cut_m;
  }
