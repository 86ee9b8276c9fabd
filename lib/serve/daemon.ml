(* The autotuning service.  One coordinating domain interleaves every
   live tuning session cooperatively: a session's search suspends (via
   the [Yield] effect, performed from the engine's batch-boundary hook)
   and is resumed round-robin, so all sessions share each measurement
   context's engine — memo table, demand-trace cache and database tier
   included.  A reader thread does nothing but read stdin lines into a
   queue, which the coordinator drains both between slices and from the
   engine poll hook, so cancels and new requests are admitted even
   while a search is running.  It is a systhread on the coordinator's
   domain, not a second domain: blocked in [input_line] it holds no
   runtime lock, and a second domain would make every minor collection
   a stop-the-world across both. *)

module Engine = Core.Engine
module Eco = Core.Eco
module Search = Core.Search
module Search_log = Core.Search_log
module Objective = Core.Objective
module Executor = Core.Executor
module Unix_time = Core.Unix_time

type config = {
  machine : Machine.t;
  jobs : int;
  db_file : string option;
  warm_start : bool;
  checkpoint_dir : string;
  checkpoint_every : int;
  max_live : int;
  max_queue : int;
  default_deadline_s : float;
  watchdog_s : float;
  watchdog_retries : int;
  watchdog_backoff_s : float;
  progress_every_s : float;
  service_faults : Faults.Service.t;
}

let default_config =
  {
    machine = Machine.sgi_r10000;
    jobs = 1;
    db_file = None;
    warm_start = false;
    checkpoint_dir = ".eco-serve";
    checkpoint_every = 16;
    max_live = 2;
    max_queue = 8;
    default_deadline_s = 0.0;
    watchdog_s = 0.0;
    watchdog_retries = 2;
    watchdog_backoff_s = 0.05;
    progress_every_s = 0.25;
    service_faults = Faults.Service.none;
  }

let kernels =
  [
    ("matmul", Kernels.Matmul.kernel);
    ("jacobi3d", Kernels.Jacobi3d.kernel);
    ("matvec", Kernels.Matvec.kernel);
    ("stencil2d", Kernels.Stencil2d.kernel);
    ("wavefront", Kernels.Wavefront.kernel);
  ]

(* Mirrors [eco tune]'s checkpoint tag for the service's fixed knobs
   (no measurement faults, default protocol), so a daemon checkpoint is
   verified against exactly the configuration that must reproduce its
   answer. *)
let session_tag cfg ~kernel ~n ~machine ~budget ~objective ~prefilter =
  Printf.sprintf
    "tune|m=%s|k=%s|n=%d|b=%d|faults=none|trials=1|retries=2|obj=%s|pf=%s|db=%s|sample=off|incr=off|confirm=adaptive"
    machine.Machine.name kernel n budget
    (Objective.to_string objective)
    (match prefilter with Some k -> string_of_int k | None -> "off")
    (match cfg.db_file with
    | None -> "off"
    | Some _ -> if cfg.warm_start then "warm" else "exact")

(* ---------- requests and sessions ---------- *)

type request = {
  kernel_name : string;
  kernel : Kernels.Kernel.t;
  n : int;
  rmachine : Machine.t;
  budget : int;
  objective : Objective.t;
  prefilter : int option;
  deadline_s : float;  (* <= 0 = none *)
  cycle_budget : float;  (* <= 0 = none *)
}

type session = {
  sid : int;
  rpc_id : Json.t;
  key : string;  (* rendered rpc_id: the cancel-lookup key *)
  name : string;  (* "s<sid>": the fault-plan stream key *)
  req : request;
  engine : Engine.t;
  log : Search_log.t;
  tag : string;
  ck_file : string;
  req_file : string;
  recovered : bool;
  deadline : float;  (* absolute; [infinity] = none *)
  mutable resumed_from : int;
  mutable cancelled : bool;
  mutable batches : int;
  mutable stalls : int;
  mutable batch_started : float;
  mutable last_progress : float;
  mutable events : int;
  mutable client_gone : bool;
  mutable finished : bool;
}

type outcome =
  | Done
  | Suspended of (unit, outcome) Effect.Deep.continuation

type runnable =
  | Start of session
  | Resume of session * (unit, outcome) Effect.Deep.continuation

type daemon = {
  cfg : config;
  oc : out_channel;
  mutable out_dead : bool;
  inbox : string Queue.t;
  inbox_m : Mutex.t;
  inbox_c : Condition.t;
  mutable reader_done : bool;
  engines : (string, Engine.t) Hashtbl.t;
  mutable db : Perfdb.t option;
  mutable db_degraded : string option;
  sessions : (string, session) Hashtbl.t;
  ready : runnable Queue.t;
  waiting : session Queue.t;
  mutable live : int;
  mutable current : session option;
  mutable total_batches : int;
  mutable next_sid : int;
  mutable shutting_down : bool;
}

type _ Effect.t += Yield : unit Effect.t

exception Cancelled
exception Quarantined_session of string
exception Cycle_budget_exceeded

(* ---------- output ---------- *)

let emit d v =
  if not d.out_dead then (
    try
      output_string d.oc (Json.to_string v);
      output_char d.oc '\n';
      flush d.oc
    with Sys_error _ -> d.out_dead <- true)

let notification meth params =
  Json.Obj [ ("method", Json.String meth); ("params", Json.Obj params) ]

let respond_result d id fields =
  emit d (Json.Obj [ ("id", id); ("result", Json.Obj fields) ])

let respond_error d id (e : Errors.t) =
  emit d (Json.Obj [ ("id", id); ("error", Errors.to_json e) ])

(* ---------- small helpers ---------- *)

let bindings_str bs =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) bs)

let session_cycles s =
  List.fold_left
    (fun acc (e : Search_log.entry) -> acc +. e.Search_log.cycles)
    0.0 (Search_log.entries s.log)

let remove_quietly file = try Sys.remove file with Sys_error _ -> ()

let db_state d =
  let engine_degraded =
    Hashtbl.fold
      (fun _ e acc ->
        match acc with Some _ -> acc | None -> Engine.db_degraded e)
      d.engines None
  in
  (match (d.db_degraded, engine_degraded) with
  | None, Some r -> d.db_degraded <- Some r
  | _ -> ());
  match d.db_degraded with
  | Some reason -> ("degraded", Some reason)
  | None -> if d.db = None then ("off", None) else ("ok", None)

let db_state_json d =
  let state, reason = db_state d in
  ("db", Json.String state)
  ::
  (match reason with
  | Some r -> [ ("db_reason", Json.String r) ]
  | None -> [])

let telemetry_json s =
  [
    ("fresh", Json.Int (Search_log.fresh s.log));
    ("hits", Json.Int (Search_log.hits s.log));
    ("db_hits", Json.Int (Search_log.db_hits s.log));
    ("pruned", Json.Int (Search_log.pruned s.log));
    ("failed", Json.Int (Search_log.failed s.log));
    ( "quarantined",
      Json.Int (Engine.stats s.engine).Engine.failed_quarantined );
    ("seconds", Json.Float (Search_log.seconds s.log));
    ("batches", Json.Int s.batches);
    ("resumed", Json.Bool (s.resumed_from > 0));
  ]

let best_json s =
  match Search_log.best s.log with
  | None -> []
  | Some (e : Search_log.entry) ->
    [
      ("best_variant", Json.String e.Search_log.variant);
      ("parameters", Json.String (bindings_str e.Search_log.bindings));
      ( "prefetch",
        Json.String
          (if e.Search_log.prefetch = [] then "(none)"
           else bindings_str e.Search_log.prefetch) );
      ("mflops", Json.Float e.Search_log.mflops);
      ("performance", Json.String (Printf.sprintf "%.1f" e.Search_log.mflops));
      ("cycles", Json.Float e.Search_log.cycles);
    ]

let ident_json s =
  [
    ("session", s.rpc_id);
    ("sid", Json.Int s.sid);
    ("kernel", Json.String s.req.kernel_name);
    ("n", Json.Int s.req.n);
    ("machine", Json.String s.req.rmachine.Machine.name);
  ]

(* ---------- session finalization ---------- *)

(* A finished session removes its request file only after the answer is
   on the wire: a crash in between replays the request on restart
   (at-least-once), which is the crash-only contract. *)
let finish_common d s result_fields =
  s.finished <- true;
  if s.client_gone then
    emit d
      (notification "session_dropped"
         (ident_json s @ [ ("reason", Json.String "client_disconnected") ]))
  else if s.recovered then
    emit d (notification "recovered" (ident_json s @ result_fields))
  else respond_result d s.rpc_id (ident_json s @ result_fields);
  remove_quietly s.req_file

let finish_ok d s (r : Eco.result) =
  Engine.checkpoint_now s.engine;
  let o = r.Eco.outcome in
  let m = r.Eco.measurement in
  finish_common d s
    ([
       ("status", Json.String "ok");
       ("best_variant", Json.String o.Search.variant.Core.Variant.name);
       ("parameters", Json.String (bindings_str o.Search.bindings));
       ( "prefetch",
         Json.String
           (if o.Search.prefetch = [] then "(none)"
            else bindings_str o.Search.prefetch) );
       ("mflops", Json.Float m.Executor.mflops);
       ( "performance",
         Json.String (Printf.sprintf "%.1f" m.Executor.mflops) );
       ("cycles", Json.Float (Executor.cycles m));
     ]
    @ telemetry_json s @ db_state_json d);
  (* a complete answer needs no resume state *)
  remove_quietly s.ck_file

let finish_partial d s ~status ~reason =
  (* persist the resumable cursor before reporting: re-submitting the
     same request (or restarting the daemon) resumes from here *)
  Engine.checkpoint_now s.engine;
  finish_common d s
    ([ ("status", Json.String status); ("reason", Json.String reason) ]
    @ best_json s @ telemetry_json s
    @ [ ("checkpoint", Json.String s.ck_file) ]
    @ db_state_json d)

let finish_error d s (e : Errors.t) =
  s.finished <- true;
  if not s.client_gone then
    emit d (Json.Obj [ ("id", s.rpc_id); ("error", Errors.to_json e) ]);
  remove_quietly s.req_file

(* ---------- request parsing ---------- *)

let parse_request cfg params =
  let str k = Json.to_string_opt (Json.mem k params) in
  let int k = Json.to_int_opt (Json.mem k params) in
  let flt k = Json.to_float_opt (Json.mem k params) in
  let bad msg = Error (Errors.make ~code:"bad_request" msg) in
  match str "kernel" with
  | None -> bad "params.kernel is required"
  | Some kname -> (
    match List.assoc_opt kname kernels with
    | None ->
      bad
        (Printf.sprintf "unknown kernel %s (have: %s)" kname
           (String.concat ", " (List.map fst kernels)))
    | Some kernel -> (
      let n = Option.value (int "n") ~default:256 in
      if n < 2 then bad "params.n must be at least 2"
      else
        match
          match str "machine" with
          | None -> Ok cfg.machine
          | Some name -> (
            match Machine.by_name name with
            | Some m -> Ok m
            | None -> bad (Printf.sprintf "unknown machine %s" name))
        with
        | Error e -> Error e
        | Ok rmachine ->
          let budget = Option.value (int "budget") ~default:400_000 in
          (match
             match str "objective" with
             | None -> Ok Objective.Cycles
             | Some o -> (
               match Objective.of_string o with
               | Some o -> Ok o
               | None -> bad (Printf.sprintf "unknown objective %s" o))
           with
          | Error e -> Error e
          | Ok objective ->
            let prefilter =
              match int "prefilter" with Some k when k >= 1 -> Some k | _ -> None
            in
            let deadline_s =
              match flt "deadline_s" with
              | Some v when v > 0.0 -> v
              | _ -> cfg.default_deadline_s
            in
            let cycle_budget =
              match flt "cycle_budget" with Some v when v > 0.0 -> v | _ -> 0.0
            in
            Ok
              {
                kernel_name = kname;
                kernel;
                n;
                rmachine;
                budget;
                objective;
                prefilter;
                deadline_s;
                cycle_budget;
              })))

let request_json rpc_id req =
  Json.Obj
    [
      ("id", rpc_id);
      ( "params",
        Json.Obj
          ([
             ("kernel", Json.String req.kernel_name);
             ("n", Json.Int req.n);
             ("machine", Json.String req.rmachine.Machine.name);
             ("budget", Json.Int req.budget);
             ("objective", Json.String (Objective.to_string req.objective));
           ]
          @ (match req.prefilter with
            | Some k -> [ ("prefilter", Json.Int k) ]
            | None -> [])
          @ (if req.deadline_s > 0.0 then
               [ ("deadline_s", Json.Float req.deadline_s) ]
             else [])
          @
          if req.cycle_budget > 0.0 then
            [ ("cycle_budget", Json.Float req.cycle_budget) ]
          else []) );
    ]

let write_request_file s =
  let tmp = s.req_file ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (Json.to_string (request_json s.rpc_id s.req));
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp s.req_file

(* ---------- inbox ---------- *)

let inbox_pop d =
  Mutex.lock d.inbox_m;
  let v = if Queue.is_empty d.inbox then None else Some (Queue.pop d.inbox) in
  Mutex.unlock d.inbox_m;
  v

let inbox_wait d =
  Mutex.lock d.inbox_m;
  while Queue.is_empty d.inbox && not d.reader_done do
    Condition.wait d.inbox_c d.inbox_m
  done;
  Mutex.unlock d.inbox_m

let reader_loop d ic =
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         Mutex.lock d.inbox_m;
         Queue.push line d.inbox;
         Condition.signal d.inbox_c;
         Mutex.unlock d.inbox_m
       end
     done
   with End_of_file | Sys_error _ -> ());
  Mutex.lock d.inbox_m;
  d.reader_done <- true;
  Condition.broadcast d.inbox_c;
  Mutex.unlock d.inbox_m

(* ---------- the coordinator ---------- *)

let cancel_all d =
  Hashtbl.iter (fun _ s -> if not s.finished then s.cancelled <- true) d.sessions

let status_json d =
  let fresh, hits, db_hits =
    Hashtbl.fold
      (fun _ e (f, h, dbh) ->
        let s = Engine.stats e in
        (f + s.Engine.fresh, h + s.Engine.hits, dbh + s.Engine.db_hits))
      d.engines (0, 0, 0)
  in
  [
    ("live", Json.Int d.live);
    ("queued", Json.Int (Queue.length d.waiting));
    ("sessions", Json.Int (d.next_sid - 1));
    ("engines", Json.Int (Hashtbl.length d.engines));
    ("fresh", Json.Int fresh);
    ("hits", Json.Int hits);
    ("db_hits", Json.Int db_hits);
    ("shutting_down", Json.Bool d.shutting_down);
  ]
  @ db_state_json d

let rec drain d =
  match inbox_pop d with
  | Some line ->
    process_line d line;
    drain d
  | None -> ()

and process_line d line =
  match Json.of_string line with
  | exception Json.Parse_error msg ->
    respond_error d Json.Null
      (Errors.make ~code:"bad_request" ("invalid JSON: " ^ msg))
  | j -> (
    let id = Json.mem "id" j in
    match Json.to_string_opt (Json.mem "method" j) with
    | Some "tune" -> (
      match parse_request d.cfg (Json.mem "params" j) with
      | Ok req -> ignore (admit d ~rpc_id:id ~recovered:false req)
      | Error e -> respond_error d id e)
    | Some "cancel" ->
      let target = Json.mem "session" (Json.mem "params" j) in
      let key = Json.to_string target in
      let hit =
        match Hashtbl.find_opt d.sessions key with
        | Some s when not s.finished ->
          s.cancelled <- true;
          true
        | _ -> false
      in
      respond_result d id
        [ ("session", target); ("cancelled", Json.Bool hit) ]
    | Some "status" -> respond_result d id (status_json d)
    | Some "shutdown" ->
      respond_result d id [ ("ok", Json.Bool true) ];
      d.shutting_down <- true;
      cancel_all d
    | Some m ->
      respond_error d id (Errors.make ~code:"bad_request" ("unknown method " ^ m))
    | None ->
      respond_error d id (Errors.make ~code:"bad_request" "missing method"))

and admit d ~rpc_id ~recovered req =
  let key = Json.to_string rpc_id in
  let duplicate =
    match Hashtbl.find_opt d.sessions key with
    | Some s -> not s.finished
    | None -> false
  in
  if duplicate then begin
    respond_error d rpc_id
      (Errors.make ~code:"bad_request" "a live session already uses this id");
    None
  end
  else if d.shutting_down then begin
    respond_error d rpc_id
      (Errors.make ~code:"shutdown" "daemon is shutting down");
    None
  end
  else if
    (* replayed requests were admitted by a previous incarnation: they
       never bounce off admission control again *)
    (not recovered)
    && d.live >= d.cfg.max_live
    && Queue.length d.waiting >= d.cfg.max_queue
  then begin
    respond_error d rpc_id
      (Errors.busy ~retry_after_s:1.0
         (Printf.sprintf "%d live and %d queued sessions: admission full"
            d.live (Queue.length d.waiting)));
    None
  end
  else begin
    let s = create_session d ~rpc_id ~recovered req in
    Hashtbl.replace d.sessions key s;
    write_request_file s;
    let queued = d.live >= d.cfg.max_live in
    if queued then Queue.push s d.waiting
    else begin
      d.live <- d.live + 1;
      Queue.push (Start s) d.ready
    end;
    emit d
      (notification "accepted"
         (ident_json s
         @ [
             ("queued", Json.Bool queued);
             ("position", Json.Int (Queue.length d.waiting));
             ("recovered", Json.Bool recovered);
           ]));
    Some s
  end

and create_session d ~rpc_id ~recovered req =
  let sid = d.next_sid in
  d.next_sid <- sid + 1;
  let engine = engine_for d req in
  let tag =
    session_tag d.cfg ~kernel:req.kernel_name ~n:req.n ~machine:req.rmachine
      ~budget:req.budget ~objective:req.objective ~prefilter:req.prefilter
  in
  let base =
    Filename.concat d.cfg.checkpoint_dir
      ("session-" ^ Digest.to_hex (Digest.string tag))
  in
  let s =
    {
      sid;
      rpc_id;
      key = Json.to_string rpc_id;
      name = "s" ^ string_of_int sid;
      req;
      engine;
      log = Search_log.create ();
      tag;
      ck_file = base ^ ".ck";
      req_file = base ^ ".req";
      recovered;
      deadline =
        (if req.deadline_s > 0.0 then Unix_time.now () +. req.deadline_s
         else infinity);
      resumed_from = 0;
      cancelled = false;
      batches = 0;
      stalls = 0;
      batch_started = 0.0;
      last_progress = Unix_time.now ();
      events = 0;
      client_gone = false;
      finished = false;
    }
  in
  (* Resume a prior incarnation's checkpoint only into an engine with no
     state yet (i.e. right after a restart): mid-service, the shared
     memo already holds everything a cancelled session measured, so the
     replay is served from memory without touching the file. *)
  let st = Engine.stats engine in
  (if st.Engine.fresh = 0 && st.Engine.hits = 0 then
     match Engine.load_checkpoint engine ~tag s.ck_file with
     | Some r -> s.resumed_from <- r.Engine.resumed_entries
     | None -> ()
     | exception Engine.Checkpoint_mismatch _ -> ());
  s

and engine_for d req =
  let key =
    Printf.sprintf "%s|%s|%s" req.rmachine.Machine.name
      (Objective.to_string req.objective)
      (match req.prefilter with Some k -> string_of_int k | None -> "off")
  in
  match Hashtbl.find_opt d.engines key with
  | Some e -> e
  | None ->
    let e =
      Engine.create ~jobs:d.cfg.jobs ~objective:req.objective
        ?prefilter:req.prefilter req.rmachine
    in
    (match d.db with
    | Some db -> Engine.set_db e ~warm_start:d.cfg.warm_start db
    | None -> ());
    Engine.set_poll e (Some (fun () -> poll d));
    Engine.set_yield e (Some (fun () -> yield d));
    Hashtbl.add d.engines key e;
    e

(* The poll hook: runs before/after every evaluation of the current
   session.  Drains the inbox (so a cancel aimed at us lands), then
   raises the session's cooperative aborts.  The reader thread needs
   the runtime lock to queue a line it has read; [Thread.yield] hands
   the lock over when it is waiting (and costs a few nanoseconds when
   not), so a request lands within one evaluation rather than at the
   runtime's next periodic thread switch. *)
and poll d =
  Thread.yield ();
  drain d;
  match d.current with
  | None -> ()
  | Some s ->
    if s.cancelled then raise Cancelled;
    if s.req.cycle_budget > 0.0 && session_cycles s > s.req.cycle_budget then
      raise Cycle_budget_exceeded;
    let now = Unix_time.now () in
    if now -. s.last_progress >= d.cfg.progress_every_s then begin
      s.last_progress <- now;
      progress d s;
      (* a simulated client disconnect cancels on the spot *)
      if s.cancelled then raise Cancelled
    end

(* The batch-boundary hook: watchdog, fault injection, and the one
   point where the whole search suspends so other sessions run. *)
and yield d =
  match d.current with
  | None -> ()
  | Some s ->
    s.batches <- s.batches + 1;
    d.total_batches <- d.total_batches + 1;
    (match d.cfg.service_faults.Faults.Service.kill_after with
    | Some k when d.total_batches >= k ->
      (* simulated SIGKILL: no cleanup, no flush, no final checkpoint *)
      Unix._exit 9
    | _ -> ());
    (if d.cfg.watchdog_s > 0.0 && s.batch_started > 0.0 then
       let elapsed = Unix_time.now () -. s.batch_started in
       if elapsed > d.cfg.watchdog_s then begin
         s.stalls <- s.stalls + 1;
         if s.stalls > d.cfg.watchdog_retries then
           raise
             (Quarantined_session
                (Printf.sprintf
                   "measurement batches stalled %d times (watchdog %.3gs, \
                    last batch %.3gs)"
                   s.stalls d.cfg.watchdog_s elapsed));
         (* retry the substrate after an exponential backoff *)
         Unix.sleepf
           (d.cfg.watchdog_backoff_s *. (2.0 ** float_of_int (s.stalls - 1)))
       end);
    Effect.perform Yield;
    (* resumed: a new batch begins on our slice *)
    s.batch_started <- Unix_time.now ();
    if
      Faults.Service.hangs d.cfg.service_faults ~session:s.name
        ~batch:s.batches
    then Unix.sleepf d.cfg.service_faults.Faults.Service.hang_s

and progress d s =
  s.events <- s.events + 1;
  if
    Faults.Service.disconnects d.cfg.service_faults ~session:s.name
      ~event:s.events
  then begin
    s.client_gone <- true;
    s.cancelled <- true
  end
  else
    emit d
      (notification "progress"
         (ident_json s
         @ [ ("phase", Json.String "searching") ]
         @ best_json s @ telemetry_json s))

(* ---------- scheduling ---------- *)

let scheduler =
  {
    Effect.Deep.retc = (fun () -> Done);
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
          Some
            (fun (k : (a, outcome) Effect.Deep.continuation) -> Suspended k)
        | _ -> None);
  }

let run_session d s () =
  (try
     let mode =
       if s.req.budget <= 0 then Executor.Full else Executor.Budget s.req.budget
     in
     let r = Eco.optimize_with ~mode ~log:s.log s.engine s.req.kernel ~n:s.req.n in
     finish_ok d s r
   with
  | Cancelled -> finish_partial d s ~status:"cancelled" ~reason:"cancelled"
  | Engine.Deadline_exceeded ->
    finish_partial d s ~status:"timeout"
      ~reason:(Printf.sprintf "deadline of %.3gs exceeded" s.req.deadline_s)
  | Cycle_budget_exceeded ->
    finish_partial d s ~status:"cycle_budget"
      ~reason:
        (Printf.sprintf "simulated-cycle budget of %.3g exhausted"
           s.req.cycle_budget)
  | Quarantined_session why -> finish_partial d s ~status:"quarantined" ~reason:why
  | Eco.No_feasible_variant { kernel; n; per_variant } ->
    finish_error d s (Errors.no_feasible_variant ~kernel ~n per_variant)
  | e ->
    finish_error d s
      (Errors.make ~code:"internal" (Printexc.to_string e)));
  ()

let bind d s =
  d.current <- Some s;
  Engine.set_checkpoint s.engine ~every:d.cfg.checkpoint_every ~tag:s.tag
    s.ck_file;
  Engine.set_deadline s.engine
    (if s.deadline = infinity then None else Some s.deadline)

let unbind d s =
  d.current <- None;
  Engine.set_deadline s.engine None

let promote d =
  while d.live < d.cfg.max_live && not (Queue.is_empty d.waiting) do
    let s = Queue.pop d.waiting in
    d.live <- d.live + 1;
    Queue.push (Start s) d.ready
  done

let settle d s = function
  | Suspended k ->
    unbind d s;
    Queue.push (Resume (s, k)) d.ready
  | Done ->
    unbind d s;
    d.live <- d.live - 1;
    ignore (db_state d);
    promote d

let step d = function
  | Start s ->
    if s.cancelled then begin
      (* cancelled while still queued: nothing ran, nothing to persist *)
      s.finished <- true;
      if not s.client_gone then
        respond_result d s.rpc_id
          (ident_json s
          @ [
              ("status", Json.String "cancelled");
              ("reason", Json.String "cancelled before start");
            ]);
      remove_quietly s.req_file;
      d.live <- d.live - 1;
      promote d
    end
    else begin
      bind d s;
      s.batch_started <- Unix_time.now ();
      settle d s (Effect.Deep.match_with (run_session d s) () scheduler)
    end
  | Resume (s, k) ->
    bind d s;
    let outcome =
      if s.cancelled then Effect.Deep.discontinue k Cancelled
      else Effect.Deep.continue k ()
    in
    settle d s outcome

(* Stdin closing means "no more requests": outstanding sessions drain
   to completion, then the daemon exits.  Only an explicit [shutdown]
   request cancels work in flight. *)
let rec loop d =
  drain d;
  if not (Queue.is_empty d.ready) then begin
    step d (Queue.pop d.ready);
    loop d
  end
  else if d.live > 0 then begin
    (* unreachable: a live session is always current or in [ready] *)
    Unix.sleepf 0.01;
    loop d
  end
  else if d.shutting_down || d.reader_done then ()
  else begin
    inbox_wait d;
    loop d
  end

(* ---------- startup ---------- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file file =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let open_db d =
  match d.cfg.db_file with
  | None -> ()
  | Some file -> (
    match Perfdb.load ~lock:true file with
    | db -> d.db <- Some db
    | exception Perfdb.Locked msg ->
      (* a second writer is a deployment error, not a degraded mode *)
      emit d
        (Json.Obj
           [
             ("id", Json.Null);
             ( "error",
               Errors.to_json
                 (Errors.make ~code:"db_locked"
                    ~data:[ ("path", Json.String file) ]
                    msg) );
           ]);
      prerr_endline ("eco serve: " ^ msg);
      exit 1
    | exception Perfdb.Corrupt msg ->
      (* crash-only: a torn store degrades the persistence tier, it
         does not take the service down *)
      d.db_degraded <- Some msg)

(* Replay every request file a dead incarnation left behind: each one
   was acknowledged but never answered.  Their checkpoints restore the
   memo, so the replayed search is memo-served up to the crash point
   and lands on the identical answer. *)
let recover d =
  match Sys.readdir d.cfg.checkpoint_dir with
  | exception Sys_error _ -> ()
  | files ->
    Array.sort compare files;
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".req" then begin
          let path = Filename.concat d.cfg.checkpoint_dir f in
          match Json.of_string (String.trim (read_file path)) with
          | exception _ -> remove_quietly path
          | j -> (
            match parse_request d.cfg (Json.mem "params" j) with
            | Error _ -> remove_quietly path
            | Ok req -> (
              (* admission rewrites the request at its canonical
                 (tag-digest) name before the original is dropped, so
                 the request exists on disk at every instant *)
              match admit d ~rpc_id:(Json.mem "id" j) ~recovered:true req with
              | Some s when Filename.basename s.req_file <> f ->
                remove_quietly path
              | Some _ -> ()
              | None -> remove_quietly path))
        end)
      files

let run ?(ic = stdin) ?(oc = stdout) cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  mkdir_p cfg.checkpoint_dir;
  let d =
    {
      cfg;
      oc;
      out_dead = false;
      inbox = Queue.create ();
      inbox_m = Mutex.create ();
      inbox_c = Condition.create ();
      reader_done = false;
      engines = Hashtbl.create 7;
      db = None;
      db_degraded = None;
      sessions = Hashtbl.create 31;
      ready = Queue.create ();
      waiting = Queue.create ();
      live = 0;
      current = None;
      total_batches = 0;
      next_sid = 1;
      shutting_down = false;
    }
  in
  open_db d;
  emit d
    (notification "ready"
       ([
          ("pid", Json.Int (Unix.getpid ()));
          ("machine", Json.String cfg.machine.Machine.name);
          ("max_live", Json.Int cfg.max_live);
          ("max_queue", Json.Int cfg.max_queue);
        ]
       @ db_state_json d));
  recover d;
  let reader = Thread.create (fun () -> reader_loop d ic) () in
  loop d;
  (match d.db with
  | Some db -> ( try Perfdb.close db with _ -> ())
  | None -> ());
  (* the reader ends with its input; join it only when it already has,
     so a [shutdown] request doesn't block on an open stdin *)
  if d.reader_done then (try Thread.join reader with _ -> ());
  0
