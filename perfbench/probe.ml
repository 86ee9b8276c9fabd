(* In-process helper of the benchmark in this directory (see NOTES.md).

   [probe validate] reads tuned winners on stdin, one per line as
   "kernel n variant bindings prefetch" (bindings comma-separated, "-"
   for none), and checks each against the reference interpreter with
   [Check.validate], printing "ok" or "FAIL <why>" per line.

   [probe layers --workload W --seed S --keys kernel:n:budget,...
   --work DIR --store FILE --messages FILE] re-runs the workload's
   tunes in process with the engine's batch hooks installed, then times
   each layer's public entry points from here, on the candidates and
   sweep groups those tunes evaluated.  It prints one JSON object of raw
   samples and spans, which run.py aggregates. *)

module J = Serve.Json

let now = Unix.gettimeofday
let machine = Machine.sgi_r10000

let kernel_of = function
  | "matmul" -> Kernels.Matmul.kernel
  | "jacobi3d" -> Kernels.Jacobi3d.kernel
  | "matvec" -> Kernels.Matvec.kernel
  | "stencil2d" -> Kernels.Stencil2d.kernel
  | "wavefront" -> Kernels.Wavefront.kernel
  | k -> invalid_arg ("probe: unknown kernel " ^ k)

let bindings_of s =
  if s = "-" || s = "" then [] else Check.parse_bindings s

(* --- validate ------------------------------------------------------- *)

let validate () =
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line ->
      let verdict =
        match String.split_on_char ' ' (String.trim line) with
        | [ k; n; name; params; pf ] -> (
          let kernel = kernel_of k and n = int_of_string n in
          match Check.find_variant ~machine kernel name with
          | None -> "FAIL no variant " ^ name
          | Some variant ->
            let verdicts =
              Check.validate ~machine variant ~bindings:(bindings_of params)
                ~prefetch:(bindings_of pf) ~n
            in
            let bad =
              List.filter (fun (_, v) -> not (Check.Oracle.agrees v)) verdicts
            in
            if verdicts = [] then "FAIL no size validated"
            else if bad = [] then "ok"
            else
              "FAIL "
              ^ String.concat "; "
                  (List.map
                     (fun (s, v) ->
                       Printf.sprintf "n=%d %s" s (Check.Oracle.describe v))
                     bad))
        | _ -> "FAIL malformed line"
      in
      print_endline verdict;
      loop ()
  in
  loop ()

(* --- spans and samples --------------------------------------------- *)

(* Spans stay in memory and leave in the final JSON object. *)
type span = { id : int; parent : int; name : string; key : string; t0 : float; t1 : float }

let t_start = now ()
let spans = ref []
let stack = ref []
let next_id = ref 0

let span ~key name f =
  incr next_id;
  let id = !next_id in
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  stack := id :: !stack;
  let t0 = now () in
  let finish () =
    spans := { id; parent; name; key; t0; t1 = now () } :: !spans;
    stack := List.tl !stack
  in
  match f () with
  | r -> finish (); r
  | exception e -> finish (); raise e

let samples : (string, float list) Hashtbl.t = Hashtbl.create 32

let add name v =
  Hashtbl.replace samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

(* Time [f] (seconds).  Calls shorter than a clock tick are repeated
   until 2 ms have passed and the mean per call is returned. *)
let time f =
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  if dt >= 1e-4 then (r, dt)
  else begin
    let reps = ref 1 and t1 = ref (now ()) in
    while !t1 -. t0 < 2e-3 do
      ignore (Sys.opaque_identity (f ()));
      incr reps;
      t1 := now ()
    done;
    (r, (!t1 -. t0) /. float_of_int !reps)
  end

(* --- workload engines ---------------------------------------------- *)

let sample_spec = "shrink=4"

(* The engine each workload's `eco tune` builds from its flags. *)
let make_engine workload ~seed =
  match workload with
  | "tune-estimated" ->
    let e =
      Core.Engine.create ~prefilter:Core.Engine.default_prefilter machine
    in
    Core.Engine.set_sampling e (Some (Memsim.Sampling.parse sample_spec));
    Core.Engine.set_incremental e true;
    e
  | "tune-guarded" ->
    Core.Engine.create
      ~faults:
        (Faults.of_spec (Printf.sprintf "seed=%d,transient=0.05,hang=0.02" seed))
      ~protocol:{ Core.Engine.default_protocol with trials = 3; max_retries = 5 }
      machine
  | _ -> Core.Engine.create machine

let bindings_str sep l =
  String.concat sep (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l)

(* Every [k]-th element, at most [m] of them. *)
let spread m l =
  let a = Array.of_list l in
  let n = Array.length a in
  if n <= m then l else List.init m (fun i -> a.(i * n / m))

let file_size f = (Unix.stat f).Unix.st_size

let copy_file src dst =
  let ic = open_in_bin src in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc s;
  close_out oc

(* --- layers -------------------------------------------------------- *)

let layer_key ~workload ~seed ~work ~store (kname, n, budget) =
  let key = Printf.sprintf "%s:%d:%d" kname n budget in
  let kernel = kernel_of kname in
  let mode = Core.Executor.Budget budget in
  for _ = 1 to 5 do
    let _, dt = span ~key "derive" (fun () -> time (fun () -> Core.Derive.variants machine kernel)) in
    add "derive_s" dt
  done;
  let ck = Filename.concat work (Printf.sprintf "ck-%s-%d-%d.bin" kname n budget) in
  let tag = "perfbench|" ^ key in
  let fresh_engine () =
    let e = make_engine workload ~seed in
    (* tune-guarded checkpoints every 16 fresh evaluations, as its CLI does *)
    if workload = "tune-guarded" then Core.Engine.set_checkpoint e ~every:16 ~tag ck;
    e
  in
  (* The same tune twice before the traced one, each on a fresh engine:
     once untimed, so that the untraced tune finds the heap and the
     per-domain VM buffers and hierarchy pool as grown as the traced tune
     does, then untraced, for the tracing overhead. *)
  let untraced () =
    let e = fresh_engine () in
    let t0 = now () in
    ignore (Core.Eco.optimize_with ~mode e kernel ~n);
    now () -. t0
  in
  ignore (untraced ());
  let untraced_s = untraced () in
  (* The traced tune: batch-boundary and poll hooks bracket the time
     spent inside engine batches. *)
  let engine = fresh_engine () in
  let batches = ref 0 and in_batch = ref 0.0 in
  let start = ref nan and last = ref nan and prev = ref nan in
  let close_batch upto =
    if (not (Float.is_nan !start)) && upto > !start then
      in_batch := !in_batch +. (upto -. !start)
  in
  Core.Engine.set_poll engine (Some (fun () -> prev := !last; last := now ()));
  Core.Engine.set_yield engine
    (Some
       (fun () ->
         (* the boundary's own poll just ran: the batch before it ended
            at the poll before that *)
         close_batch !prev;
         incr batches;
         start := now ();
         last := !start));
  let log = Core.Search_log.create () in
  let t0 = now () in
  let r = span ~key "tune" (fun () -> Core.Eco.optimize_with ~mode ~log engine kernel ~n) in
  let tune_s = now () -. t0 in
  close_batch !last;
  Core.Engine.set_poll engine None;
  Core.Engine.set_yield engine None;
  let o = r.Core.Eco.outcome in
  let { Core.Engine.trials_run; retries; _ } = Core.Engine.stats engine in
  let pairs, inversions = Core.Engine.rank_quality engine ~kernel:kname in
  let variant_of name =
    List.find (fun (v : Core.Variant.t) -> v.Core.Variant.name = name) r.Core.Eco.variants
  in
  let entries = Core.Search_log.entries log in
  (* [bare] drops the prefetch plan: the sweep group's demand program. *)
  let request ?(bare = false) (e : Core.Search_log.entry) =
    Core.Engine.request
      (variant_of e.Core.Search_log.variant)
      ~n ~mode ~bindings:e.Core.Search_log.bindings
      ~prefetch:(if bare then [] else e.Core.Search_log.prefetch)
  in
  let params = Kernels.Kernel.params kernel n in
  let register_budget = Machine.available_registers machine in
  (* The VM budgets Executor.measure uses for a mode. *)
  let budgets = function
    | Core.Executor.Budget b when b < kernel.Kernels.Kernel.flops n ->
      (Some b, Some (max 1 (b / 2)))
    | Core.Executor.Budget b -> (Some b, None)
    | Core.Executor.Full -> (None, None)
  in
  let flop_budget, warm_budget = budgets mode in
  (* Per-candidate layers on an even spread of the measured points. *)
  let picked = spread 16 entries in
  let rank_pairs =
    List.filter_map
      (fun (e : Core.Search_log.entry) ->
        let req = request e in
        match span ~key "instantiate" (fun () -> time (fun () -> Core.Engine.build engine req)) with
        | None, _ -> None
        | Some prog, dt ->
          add "instantiate_s" dt;
          let vm, dt =
            span ~key "vm.compile" (fun () ->
                time (fun () -> Ir.Vm.compile ~register_budget ~params prog))
          in
          add "vm_compile_s" dt;
          let t0 = now () in
          let run = span ~key "vm.run" (fun () -> Ir.Vm.run ?flop_budget ?warm_budget vm) in
          add "vm_events_per_s" (float_of_int run.Ir.Vm.n_events /. (now () -. t0));
          let t0 = now () in
          let m =
            span ~key "executor.measure" (fun () ->
                Core.Executor.measure machine kernel ~n ~mode prog)
          in
          add "measure_s" (now () -. t0);
          let variant = variant_of e.Core.Search_log.variant in
          let prepared = Core.Predict.prepare variant ~n in
          let score =
            Core.Predict.score ~objective:Core.Objective.Cycles machine prepared
              ~bindings:e.Core.Search_log.bindings ~prefetch:e.Core.Search_log.prefetch
          in
          Some (J.List [ J.Float score; J.Float (Core.Executor.cycles m) ]))
      picked
  in
  (* Model throughput over every measured point of the tune. *)
  (if entries <> [] then
     let prepared = Hashtbl.create 8 in
     let prep name =
       match Hashtbl.find_opt prepared name with
       | Some p -> p
       | None ->
         let p = Core.Predict.prepare (variant_of name) ~n in
         Hashtbl.add prepared name p;
         p
     in
     let _, dt =
       span ~key "model.score" (fun () ->
           time (fun () ->
               List.iter
                 (fun (e : Core.Search_log.entry) ->
                   ignore
                     (Core.Predict.score machine (prep e.Core.Search_log.variant)
                        ~bindings:e.Core.Search_log.bindings
                        ~prefetch:e.Core.Search_log.prefetch))
                 entries))
     in
     add "predictions_per_s" (float_of_int (List.length entries) /. dt));
  (* Memo hits: the tune's own points, looked up again on its engine. *)
  List.iter
    (fun e ->
      let req = request e in
      match Core.Engine.evaluate engine req with
      | Some ev when ev.Core.Engine.cached ->
        let _, dt =
          span ~key "engine.memo_hit" (fun () ->
              time (fun () -> Core.Engine.evaluate engine req))
        in
        add "memo_hit_s" dt
      | _ -> ())
    picked;
  (* Sweep groups: measured points sharing a variant point and the
     prefetched arrays, differing only in prefetch distances. *)
  let groups = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (e : Core.Search_log.entry) ->
      let g =
        ( e.Core.Search_log.variant,
          e.Core.Search_log.bindings,
          List.sort compare (List.map fst e.Core.Search_log.prefetch) )
      in
      match Hashtbl.find_opt groups g with
      | Some l ->
        if not (List.exists (fun (x : Core.Search_log.entry) -> x.Core.Search_log.prefetch = e.Core.Search_log.prefetch) l)
        then Hashtbl.replace groups g (e :: l)
      | None ->
        Hashtbl.add groups g [ e ];
        order := g :: !order)
    entries;
  let sweep =
    List.filter_map
      (fun g ->
        let l =
          List.filter
            (fun (e : Core.Search_log.entry) -> e.Core.Search_log.prefetch <> [])
            (List.rev (Hashtbl.find groups g))
        in
        if List.length l >= 2 then Some l else None)
      (List.rev !order)
  in
  let sampling = Memsim.Sampling.parse sample_spec in
  List.iter
    (fun (l : Core.Search_log.entry list) ->
      let plans =
        Array.of_list
          (List.map (fun (e : Core.Search_log.entry) -> List.sort compare e.Core.Search_log.prefetch) l)
      in
      let k = float_of_int (Array.length plans) in
      match Core.Engine.build engine (request ~bare:true (List.hd l)) with
      | None -> ()
      | Some prog ->
        let events_at mode =
          let flop_budget, warm_budget = budgets mode in
          let vm = Ir.Vm.compile ~register_budget ~params prog in
          float_of_int (Ir.Vm.run ?flop_budget ?warm_budget vm).Ir.Vm.n_events
        in
        let ev = events_at mode in
        let dt_trace, dt =
          span ~key "capture" (fun () ->
              time (fun () -> Core.Demand_trace.capture machine kernel ~n ~mode prog))
        in
        add "capture_s" dt;
        let _, dt =
          span ~key "replay.k1" (fun () ->
              time (fun () ->
                  Core.Demand_trace.measure_plans machine kernel ~n dt_trace
                    ~plans:[| plans.(0) |]))
        in
        add "k1_events_per_s" (ev /. dt);
        let _, dt =
          span ~key "replay.batched" (fun () ->
              time (fun () ->
                  Core.Demand_trace.measure_plans machine kernel ~n dt_trace ~plans))
        in
        add "batched_events_per_s" (ev *. k /. dt);
        let smode = Core.Executor.effective_mode (Some sampling) mode in
        let sampled_trace = Core.Demand_trace.capture machine kernel ~n ~mode:smode prog in
        let ev_s = events_at smode in
        let _, dt =
          span ~key "replay.sampled" (fun () ->
              time (fun () ->
                  Core.Demand_trace.measure_plans ~sampling machine kernel ~n
                    sampled_trace ~plans))
        in
        add "sampled_events_per_s" (ev_s *. k /. dt);
        match
          span ~key "replay.reprice" (fun () ->
              time (fun () -> Core.Demand_trace.reprice_group machine kernel ~n dt_trace ~plans))
        with
        | Some _, dt -> add "reprice_s" dt
        | None, _ -> ())
    (spread 4 sweep);
  (* Checkpoint codec on the tune's final memo. *)
  Core.Engine.set_checkpoint engine ~every:max_int ~tag ck;
  let (), dt = span ~key "checkpoint.write" (fun () -> time (fun () -> Core.Engine.checkpoint_now engine)) in
  add "ck_write_s" dt;
  add "ck_bytes" (float_of_int (file_size ck));
  let fresh_engine = make_engine workload ~seed in
  let _, dt =
    span ~key "checkpoint.load" (fun () ->
        time (fun () -> Core.Engine.load_checkpoint fresh_engine ~tag ck))
  in
  add "ck_load_s" dt;
  (* Perfdb: append the picked points to the workload's store (a copy),
     reload it and look each one up.  The appends are timed together: one
     takes a few microseconds, near the clock's resolution, and an append
     cannot be repeated. *)
  let db_file = Filename.concat work (Printf.sprintf "db-%s-%d-%d.bin" kname n budget) in
  copy_file store db_file;
  let db = Perfdb.load db_file in
  let points =
    List.map
      (fun (e : Core.Search_log.entry) ->
        ( Printf.sprintf "perfbench|%s|%s|%s|%s" key e.Core.Search_log.variant
            (bindings_str "," e.Core.Search_log.bindings)
            (bindings_str "," e.Core.Search_log.prefetch),
          Printf.sprintf "%h" e.Core.Search_log.cycles ))
      picked
  in
  let keys = List.map fst points in
  let t0 = now () in
  span ~key "perfdb.append" (fun () ->
      List.iter
        (fun (k, payload) ->
          ignore
            (Perfdb.add_measurement db ~key:k ~kernel:kname ~machine:machine.Machine.name ~n
               ~payload))
        points);
  if points <> [] then add "db_append_s" ((now () -. t0) /. float_of_int (List.length points));
  Perfdb.close db;
  let db, dt = span ~key "perfdb.load" (fun () -> time (fun () -> Perfdb.load db_file)) in
  add "db_load_s" dt;
  List.iter
    (fun k ->
      let _, dt = span ~key "perfdb.find" (fun () -> time (fun () -> Perfdb.find_measurement db ~key:k)) in
      add "db_find_s" dt)
    keys;
  Perfdb.close db;
  J.Obj
    [
      ("key", J.String key);
      ("tune_s", J.Float tune_s);
      ("untraced_s", J.Float untraced_s);
      ( "answer",
        J.Obj
          [
            ("best_variant", J.String o.Core.Search.variant.Core.Variant.name);
            ("parameters", J.String (bindings_str " " o.Core.Search.bindings));
            ( "prefetch",
              J.String
                (if o.Core.Search.prefetch = [] then "(none)"
                 else bindings_str " " o.Core.Search.prefetch) );
            ("performance", J.String (Printf.sprintf "%.1f" r.Core.Eco.measurement.Core.Executor.mflops));
          ] );
      ("batches", J.Int !batches);
      ("in_batch_s", J.Float !in_batch);
      ("fresh", J.Int (Core.Search_log.fresh log));
      ("hits", J.Int (Core.Search_log.hits log));
      ("prefiltered", J.Int (Core.Search_log.prefiltered log));
      ("repriced", J.Int (Core.Search_log.repriced log));
      ("confirmed", J.Int (Core.Search_log.confirmed log));
      ("trials", J.Int trials_run);
      ("retries", J.Int retries);
      ("rank_pairs", J.Int pairs);
      ("rank_inversions", J.Int inversions);
      ("model_pairs", J.List rank_pairs);
    ]

let json_layer file =
  let ic = open_in file in
  let rec lines acc =
    match input_line ic with
    | l -> lines (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  List.iter
    (fun l ->
      let v, dt = span ~key:"messages" "json.parse" (fun () -> time (fun () -> J.of_string l)) in
      add "json_parse_s" dt;
      let _, dt = span ~key:"messages" "json.print" (fun () -> time (fun () -> J.to_string v)) in
      add "json_print_s" dt)
    (lines [])

let layers args =
  let need k =
    match List.assoc_opt k args with
    | Some v -> v
    | None -> invalid_arg ("probe layers: missing " ^ k)
  in
  let workload = need "--workload" and seed = int_of_string (need "--seed") in
  let work = need "--work" in
  let keys =
    List.map
      (fun s ->
        match String.split_on_char ':' s with
        | [ k; n; b ] -> (k, int_of_string n, int_of_string b)
        | _ -> invalid_arg ("probe layers: bad key " ^ s))
      (String.split_on_char ',' (need "--keys"))
  in
  let results = List.map (layer_key ~workload ~seed ~work ~store:(need "--store")) keys in
  json_layer (need "--messages");
  let fl l = J.List (List.rev_map (fun v -> J.Float v) l) in
  let out =
    J.Obj
      [
        ("keys", J.List results);
        ("samples", J.Obj (Hashtbl.fold (fun k v acc -> (k, fl v) :: acc) samples []));
        ( "spans",
          J.List
            (List.rev_map
               (fun s ->
                 J.Obj
                   [
                     ("id", J.Int s.id); ("parent", J.Int s.parent);
                     ("name", J.String s.name); ("key", J.String s.key);
                     ("start_s", J.Float (s.t0 -. t_start)); ("end_s", J.Float (s.t1 -. t_start));
                   ])
               !spans) );
      ]
  in
  print_endline (J.to_string out)

let () =
  let rec pairs = function
    | k :: v :: rest -> (k, v) :: pairs rest
    | _ -> []
  in
  match Array.to_list Sys.argv with
  | _ :: "validate" :: _ -> validate ()
  | _ :: "layers" :: args -> layers (pairs args)
  | _ ->
    prerr_endline "usage: probe (validate | layers --workload W --seed S --keys K,... --work DIR --store F --messages F)";
    exit 2
