(* The autotuning service: protocol plumbing (JSON, the shared error
   schema, the seeded service fault plans) and the daemon itself, run
   in-process over channel pairs — admission, interleaving, memo
   sharing across sessions, typed partial results (timeout, cancel,
   quarantine), checkpoint resume, request replay and degraded-db
   behavior. *)

module Json = Serve.Json
module Errors = Serve.Errors
module Daemon = Serve.Daemon

let sgi = Machine.sgi_r10000

(* --- JSON --- *)

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "[1,2,3]";
      "{\"a\":1,\"b\":[true,\"x\"],\"c\":{\"d\":null}}";
      "{\"s\":\"line\\nbreak \\\"quoted\\\"\"}";
      "-42";
      "[1.5,0.25,1e+100]";
    ]
  in
  List.iter
    (fun s ->
      let v = Json.of_string s in
      Alcotest.(check string)
        ("roundtrip " ^ s) (Json.to_string v)
        (Json.to_string (Json.of_string (Json.to_string v))))
    cases;
  (* integral floats keep their decimal point so they stay floats *)
  Alcotest.(check string) "float print" "2.0" (Json.to_string (Json.Float 2.0));
  Alcotest.(check string)
    "float survives" "146.54068434088617"
    (Json.to_string (Json.of_string "146.54068434088617"));
  Alcotest.(check bool) "int stays int" true
    (Json.of_string "7" = Json.Int 7)

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | v ->
        Alcotest.failf "parsed %S to %s but expected an error" s
          (Json.to_string v))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let test_json_accessors () =
  let v = Json.of_string "{\"a\":{\"b\":3},\"c\":[1,2],\"d\":1.5}" in
  Alcotest.(check (option int)) "nested member" (Some 3)
    (Json.to_int_opt (Json.mem "b" (Json.mem "a" v)));
  Alcotest.(check (option int)) "missing" None
    (Json.to_int_opt (Json.mem "zzz" v));
  Alcotest.(check int) "list" 2 (List.length (Json.to_list (Json.mem "c" v)));
  Alcotest.(check (option (float 1e-9))) "int widens to float" (Some 1.0)
    (Json.to_float_opt (Json.mem "a" (Json.Obj [ ("a", Json.Int 1) ])))

(* --- the shared error schema --- *)

let test_error_schema () =
  let e =
    Errors.no_feasible_variant ~kernel:"matmul" ~n:64
      [
        ("matmul_v1", Core.Eco.No_model_point);
        ("matmul_v2", Core.Eco.Point_failed Core.Engine.Transient);
      ]
  in
  let j = Errors.to_json e in
  Alcotest.(check (option string)) "code" (Some "no_feasible_variant")
    (Json.to_string_opt (Json.mem "code" j));
  let data = Json.mem "data" j in
  Alcotest.(check (option int)) "n" (Some 64)
    (Json.to_int_opt (Json.mem "n" data));
  (match Json.to_list (Json.mem "per_variant" data) with
  | [ v1; v2 ] ->
    Alcotest.(check (option string)) "v1 code" (Some "no_model_point")
      (Json.to_string_opt (Json.mem "code" v1));
    Alcotest.(check (option string)) "v2 code" (Some "point_failed")
      (Json.to_string_opt (Json.mem "code" v2));
    Alcotest.(check (option string)) "v2 inner failure" (Some "transient")
      (Json.to_string_opt (Json.mem "failure" v2))
  | l -> Alcotest.failf "expected 2 per-variant entries, got %d" (List.length l));
  (* the CLI line is the same payload behind an "error: " prefix *)
  let line = Errors.to_cli_line e in
  Alcotest.(check bool) "cli line prefix" true
    (String.length line > 7 && String.sub line 0 7 = "error: ");
  let reparsed =
    Json.of_string (String.sub line 7 (String.length line - 7))
  in
  Alcotest.(check string) "cli line payload = rpc payload"
    (Json.to_string j) (Json.to_string reparsed);
  let busy = Errors.to_json (Errors.busy ~retry_after_s:1.5 "full") in
  Alcotest.(check (option (float 1e-9))) "retry hint" (Some 1.5)
    (Json.to_float_opt (Json.mem "retry_after_s" (Json.mem "data" busy)))

(* --- service fault plans --- *)

let test_service_faults () =
  let t = Faults.Service.of_spec "seed=7,hang=0.5,hang_s=0.01,disconnect=0.3" in
  Alcotest.(check string) "spec roundtrip"
    (Faults.Service.to_spec t)
    (Faults.Service.to_spec (Faults.Service.of_spec (Faults.Service.to_spec t)));
  (* pure and deterministic: same coordinates, same draw *)
  for batch = 1 to 20 do
    Alcotest.(check bool) "hang deterministic"
      (Faults.Service.hangs t ~session:"s1" ~batch)
      (Faults.Service.hangs t ~session:"s1" ~batch)
  done;
  (* distinct sessions get distinct streams *)
  let differs =
    List.exists
      (fun b ->
        Faults.Service.hangs t ~session:"s1" ~batch:b
        <> Faults.Service.hangs t ~session:"s2" ~batch:b)
      (List.init 50 (fun i -> i + 1))
  in
  Alcotest.(check bool) "sessions decorrelated" true differs;
  Alcotest.(check bool) "none injects nothing" false
    (Faults.Service.hangs Faults.Service.none ~session:"s1" ~batch:1);
  (match Faults.Service.of_spec "none" with
  | t -> Alcotest.(check bool) "none spec" false t.Faults.Service.active);
  (match Faults.Service.make ~hang:1.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "hang=1.5 must be rejected");
  match Faults.Service.make ~kill_after:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kill_after=0 must be rejected"

(* --- driving the daemon in-process --- *)

let temp_dir () =
  let d = Filename.temp_file "eco_serve_test" "" in
  Sys.remove d;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Feed the request lines through a daemon over temp-file channels and
   return every output line, parsed.  Stdin "closes" after the last
   line, so the daemon drains its sessions and exits. *)
let run_daemon_in_dir ~cfg lines =
  let infile = Filename.temp_file "eco_serve_in" ".jsonl" in
  let outfile = Filename.temp_file "eco_serve_out" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove infile with Sys_error _ -> ());
      try Sys.remove outfile with Sys_error _ -> ())
    (fun () ->
      let oc = open_out infile in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      close_out oc;
      let ic = open_in infile in
      let oc = open_out outfile in
      let code = Daemon.run ~ic ~oc cfg in
      close_in ic;
      close_out oc;
      Alcotest.(check int) "daemon exit code" 0 code;
      let ic = open_in outfile in
      let rec read acc =
        match input_line ic with
        | line -> read (Json.of_string line :: acc)
        | exception End_of_file -> List.rev acc
      in
      let out = read [] in
      close_in ic;
      out)

let run_daemon ?(cfg = Daemon.default_config) lines =
  let dir = temp_dir () in
  let cfg = { cfg with Daemon.checkpoint_dir = dir } in
  let out = run_daemon_in_dir ~cfg lines in
  (try rm_rf dir with Sys_error _ -> ());
  out

let response ~id out =
  List.find_opt
    (fun v -> Json.member "id" v = Some (Json.Int id))
    out

let result_of ~id out =
  match response ~id out with
  | Some v when Json.member "result" v <> None -> Json.mem "result" v
  | Some v -> Alcotest.failf "id %d answered with %s" id (Json.to_string v)
  | None -> Alcotest.failf "no response for id %d" id

let error_of ~id out =
  match response ~id out with
  | Some v when Json.member "error" v <> None -> Json.mem "error" v
  | Some v -> Alcotest.failf "id %d answered with %s" id (Json.to_string v)
  | None -> Alcotest.failf "no response for id %d" id

let notifications meth out =
  List.filter (fun v -> Json.member "method" v = Some (Json.String meth)) out

let sfield name v = Json.to_string_opt (Json.mem name v)
let ifield name v = Json.to_int_opt (Json.mem name v)

let tune_line ?(budget = 100_000) ?prefilter ~id ~kernel ~n () =
  Printf.sprintf
    "{\"id\":%d,\"method\":\"tune\",\"params\":{\"kernel\":%S,\"n\":%d,\"budget\":%d%s}}"
    id kernel n budget
    (match prefilter with
    | Some k -> Printf.sprintf ",\"prefilter\":%d" k
    | None -> "")

(* The reference answer the one-shot pipeline produces for the same
   request — what every daemon path must reproduce. *)
let reference ?prefilter ~kernel ~n ~budget () =
  let r =
    Core.Eco.optimize ~mode:(Core.Executor.Budget budget) ?prefilter sgi kernel
      ~n
  in
  let o = r.Core.Eco.outcome in
  ( o.Core.Search.variant.Core.Variant.name,
    String.concat " "
      (List.map
         (fun (k, v) -> Printf.sprintf "%s=%d" k v)
         o.Core.Search.bindings),
    Printf.sprintf "%.1f" r.Core.Eco.measurement.Core.Executor.mflops )

let check_matches_reference ~ctx (rvariant, rparams, rperf) result =
  Alcotest.(check (option string)) (ctx ^ ": variant") (Some rvariant)
    (sfield "best_variant" result);
  Alcotest.(check (option string)) (ctx ^ ": parameters") (Some rparams)
    (sfield "parameters" result);
  Alcotest.(check (option string)) (ctx ^ ": performance") (Some rperf)
    (sfield "performance" result)

(* Two identical requests interleave on one engine: both answer what
   the CLI answers, and the repeat is served entirely from the shared
   memo.  With [prefilter] the pre-filter's skip set must not depend on
   what the memo already holds, or the repeat would rank a different
   batch and answer differently. *)
let test_daemon_tune_and_memo_sharing () =
  List.iter
    (fun (kernel, n, prefilter) ->
      let name = kernel.Kernels.Kernel.name in
      let ctx =
        match prefilter with
        | Some k -> Printf.sprintf "%s n=%d prefilter %d" name n k
        | None -> Printf.sprintf "%s n=%d" name n
      in
      let out =
        run_daemon
          [
            tune_line ?prefilter ~id:1 ~kernel:name ~n ();
            tune_line ?prefilter ~id:2 ~kernel:name ~n ();
            "{\"id\":9,\"method\":\"status\"}";
          ]
      in
      let r1 = result_of ~id:1 out and r2 = result_of ~id:2 out in
      Alcotest.(check (option string)) (ctx ^ ": r1 ok") (Some "ok")
        (sfield "status" r1);
      Alcotest.(check (option string)) (ctx ^ ": r2 ok") (Some "ok")
        (sfield "status" r2);
      let reference = reference ?prefilter ~kernel ~n ~budget:100_000 () in
      check_matches_reference ~ctx:(ctx ^ ": session 1") reference r1;
      check_matches_reference ~ctx:(ctx ^ ": session 2") reference r2;
      Alcotest.(check bool) (ctx ^ ": session 1 simulated") true
        (ifield "fresh" r1 > Some 0);
      Alcotest.(check (option int))
        (ctx ^ ": repeat query: zero fresh simulations")
        (Some 0) (ifield "fresh" r2);
      Alcotest.(check bool) (ctx ^ ": repeat query: memo hits") true
        (ifield "hits" r2 > Some 0);
      Alcotest.(check (option string)) (ctx ^ ": status answered") (Some "off")
        (sfield "db" (result_of ~id:9 out)))
    [ (Kernels.Matvec.kernel, 64, None); (Kernels.Matmul.kernel, 48, Some 4) ]

let test_daemon_bad_requests () =
  let out =
    run_daemon
      [
        "this is not json";
        "{\"id\":1,\"method\":\"tune\",\"params\":{\"kernel\":\"nope\",\"n\":32}}";
        "{\"id\":2,\"method\":\"tune\",\"params\":{\"n\":32}}";
        "{\"id\":3,\"method\":\"frobnicate\"}";
        "{\"id\":4,\"method\":\"cancel\",\"params\":{\"session\":77}}";
      ]
  in
  Alcotest.(check (option string)) "unknown kernel" (Some "bad_request")
    (sfield "code" (error_of ~id:1 out));
  Alcotest.(check (option string)) "missing kernel" (Some "bad_request")
    (sfield "code" (error_of ~id:2 out));
  Alcotest.(check (option string)) "unknown method" (Some "bad_request")
    (sfield "code" (error_of ~id:3 out));
  (* cancel of an unknown session reports false rather than erroring *)
  Alcotest.(check bool) "cancel miss" true
    (Json.mem "cancelled" (result_of ~id:4 out) = Json.Bool false);
  (* a parse failure is answered with id null *)
  let parse_errors =
    List.filter
      (fun v ->
        Json.member "id" v = Some Json.Null && Json.member "error" v <> None)
      out
  in
  Alcotest.(check int) "parse error answered" 1 (List.length parse_errors)

let test_daemon_admission_control () =
  let cfg = { Daemon.default_config with Daemon.max_live = 1; max_queue = 1 } in
  let out =
    run_daemon ~cfg
      [
        tune_line ~id:1 ~kernel:"matvec" ~n:64 ();
        tune_line ~id:2 ~kernel:"matvec" ~n:48 ();
        tune_line ~id:3 ~kernel:"matvec" ~n:32 ();
      ]
  in
  (* one live, one queued, the third bounced with a typed busy error *)
  Alcotest.(check (option string)) "first runs" (Some "ok")
    (sfield "status" (result_of ~id:1 out));
  Alcotest.(check (option string)) "second queued then runs" (Some "ok")
    (sfield "status" (result_of ~id:2 out));
  let e = error_of ~id:3 out in
  Alcotest.(check (option string)) "third busy" (Some "busy") (sfield "code" e);
  Alcotest.(check bool) "retry hint" true
    (Json.to_float_opt (Json.mem "retry_after_s" (Json.mem "data" e)) <> None);
  let queued =
    List.exists
      (fun v -> Json.mem "queued" (Json.mem "params" v) = Json.Bool true)
      (notifications "accepted" out)
  in
  Alcotest.(check bool) "second was queued" true queued

let test_daemon_deadline_and_resume () =
  (* a tight per-request deadline yields a typed partial result... *)
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
    (fun () ->
      let cfg =
        { Daemon.default_config with Daemon.checkpoint_dir = dir }
      in
      let out =
        run_daemon_in_dir ~cfg
          [
            "{\"id\":1,\"method\":\"tune\",\"params\":{\"kernel\":\"matmul\",\
             \"n\":96,\"budget\":200000,\"deadline_s\":0.08}}";
          ]
      in
      let r = result_of ~id:1 out in
      Alcotest.(check (option string)) "timed out" (Some "timeout")
        (sfield "status" r);
      Alcotest.(check bool) "partial best reported" true
        (sfield "best_variant" r <> None);
      Alcotest.(check bool) "checkpoint advertised" true
        (sfield "checkpoint" r <> None);
      (* ...and a fresh daemon resumes that checkpoint to the same
         answer the uninterrupted pipeline finds *)
      let out2 =
        run_daemon_in_dir ~cfg
          [ tune_line ~id:2 ~kernel:"matmul" ~n:96 ~budget:200_000 () ]
      in
      let r2 = result_of ~id:2 out2 in
      Alcotest.(check (option string)) "completes" (Some "ok")
        (sfield "status" r2);
      Alcotest.(check bool) "resumed from the partial's checkpoint" true
        (Json.mem "resumed" r2 = Json.Bool true);
      let reference =
        reference ~kernel:Kernels.Matmul.kernel ~n:96 ~budget:200_000 ()
      in
      check_matches_reference ~ctx:"resumed" reference r2)

let test_daemon_cancel_and_shutdown () =
  let out =
    run_daemon
      [
        tune_line ~id:1 ~kernel:"matmul" ~n:96 ~budget:200_000 ();
        "{\"id\":2,\"method\":\"cancel\",\"params\":{\"session\":1}}";
        "{\"id\":3,\"method\":\"shutdown\"}";
        tune_line ~id:4 ~kernel:"matvec" ~n:64 ();
      ]
  in
  Alcotest.(check bool) "cancel acknowledged" true
    (Json.mem "cancelled" (result_of ~id:2 out) = Json.Bool true);
  Alcotest.(check (option string)) "session cancelled" (Some "cancelled")
    (sfield "status" (result_of ~id:1 out));
  Alcotest.(check bool) "shutdown acknowledged" true
    (Json.mem "ok" (result_of ~id:3 out) = Json.Bool true);
  Alcotest.(check (option string)) "tune after shutdown rejected"
    (Some "shutdown")
    (sfield "code" (error_of ~id:4 out))

let test_daemon_watchdog_quarantine () =
  let cfg =
    {
      Daemon.default_config with
      Daemon.watchdog_s = 0.01;
      watchdog_retries = 1;
      watchdog_backoff_s = 0.001;
      service_faults =
        Faults.Service.make ~seed:3 ~hang:1.0 ~hang_s:0.03 ();
    }
  in
  let out = run_daemon ~cfg [ tune_line ~id:1 ~kernel:"matvec" ~n:64 () ] in
  let r = result_of ~id:1 out in
  Alcotest.(check (option string)) "quarantined" (Some "quarantined")
    (sfield "status" r);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "reason mentions the watchdog" true
    (match sfield "reason" r with
    | Some reason -> contains reason "stalled"
    | None -> false)

let test_daemon_disconnect_drops_session () =
  let cfg =
    {
      Daemon.default_config with
      Daemon.progress_every_s = 0.005;
      service_faults = Faults.Service.make ~seed:5 ~disconnect:1.0 ();
    }
  in
  let out =
    run_daemon ~cfg
      [ tune_line ~id:1 ~kernel:"matmul" ~n:96 ~budget:200_000 () ]
  in
  (* the client is gone: no final response, a drop notification instead *)
  Alcotest.(check bool) "no response to the vanished client" true
    (response ~id:1 out = None);
  Alcotest.(check int) "session_dropped notification" 1
    (List.length (notifications "session_dropped" out))

let test_daemon_recovery_replay () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
    (fun () ->
      Unix.mkdir dir 0o755;
      (* a dead daemon's orphaned request file... *)
      let oc =
        open_out (Filename.concat dir "session-deadbeef.req")
      in
      output_string oc
        "{\"id\":41,\"params\":{\"kernel\":\"matvec\",\"n\":64,\
         \"budget\":100000}}\n";
      close_out oc;
      (* ...and one torn beyond parsing, which must be dropped *)
      let oc = open_out (Filename.concat dir "session-torn.req") in
      output_string oc "{\"id\":42,\"par";
      close_out oc;
      let cfg =
        { Daemon.default_config with Daemon.checkpoint_dir = dir }
      in
      let out = run_daemon_in_dir ~cfg [] in
      (match notifications "recovered" out with
      | [ n ] ->
        let p = Json.mem "params" n in
        Alcotest.(check bool) "original id carried" true
          (Json.mem "session" p = Json.Int 41);
        Alcotest.(check (option string)) "replayed to completion" (Some "ok")
          (sfield "status" p);
        let reference =
          reference ~kernel:Kernels.Matvec.kernel ~n:64 ~budget:100_000 ()
        in
        check_matches_reference ~ctx:"recovered" reference p
      | l -> Alcotest.failf "expected 1 recovered notification, got %d"
               (List.length l));
      Alcotest.(check bool) "request files consumed" true
        (Array.for_all
           (fun f -> not (Filename.check_suffix f ".req"))
           (Sys.readdir dir)))

let test_daemon_degraded_db () =
  let store = Filename.temp_file "eco_serve_db" ".db" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove store with Sys_error _ -> ())
    (fun () ->
      (* a healthy store... *)
      Sys.remove store;
      let db = Perfdb.load store in
      ignore
        (Perfdb.add_measurement db ~key:"k1" ~kernel:"matvec"
           ~machine:"SGI R10000" ~n:64 ~payload:"payload");
      Perfdb.close db;
      (* ...corrupted in place *)
      let oc =
        open_out_gen [ Open_wronly; Open_binary ] 0o644 store
      in
      seek_out oc 13;
      output_string oc "XXXXXXXXXX";
      close_out oc;
      let cfg =
        { Daemon.default_config with Daemon.db_file = Some store }
      in
      let out =
        run_daemon ~cfg
          [
            "{\"id\":1,\"method\":\"status\"}";
            tune_line ~id:2 ~kernel:"matvec" ~n:64 ();
          ]
      in
      (* the persistence tier degrades; the daemon keeps answering *)
      Alcotest.(check (option string)) "db degraded" (Some "degraded")
        (sfield "db" (result_of ~id:1 out));
      let r = result_of ~id:2 out in
      Alcotest.(check (option string)) "tune still ok" (Some "ok")
        (sfield "status" r);
      let reference =
        reference ~kernel:Kernels.Matvec.kernel ~n:64 ~budget:100_000 ()
      in
      check_matches_reference ~ctx:"degraded-db answer" reference r)

(* --- checkpoint tags --- *)

(* [eco tune] and [eco serve] tag checkpoints with [Eco.checkpoint_tag],
   and the daemon names a session's checkpoint and request files by the
   tag's digest, so the format is pinned: a changed tag orphans every
   stored session.  The strings are the ones the CLI and the daemon
   have always written. *)
let test_checkpoint_tags_pinned () =
  (* eco tune -m sun -k jacobi3d -n 24 -b 20000
       --faults seed=7,noise=0.01,transient=0.05 --trials 3 --retries 4
       --objective energy --prefilter=2 --db F --no-warm-start
       --sample=shrink=4 --incremental --confirm 3 *)
  Alcotest.(check string) "eco tune"
    "tune|m=Sun UltraSparc IIe|k=jacobi3d|n=24|b=20000|faults=seed=7,noise=0.01,transient=0.05|trials=3|retries=4|obj=energy|pf=2|db=exact|sample=shrink=4,window=4096,gap=28672,warm=2048|incr=on|confirm=3"
    (Core.Eco.checkpoint_tag ~machine:Machine.ultrasparc_iie ~kernel:"jacobi3d"
       ~n:24 ~budget:20_000
       ~faults:(Faults.of_spec "seed=7,noise=0.01,transient=0.05")
       ~protocol:
         { Core.Engine.default_protocol with trials = 3; max_retries = 4 }
       ~objective:Core.Objective.Energy ~prefilter:(Some 2) ~db:`Exact
       ~sampling:(Some (Memsim.Sampling.parse "shrink=4"))
       ~incremental:true ~confirm:(Some 3));
  Alcotest.(check string) "daemon, default config"
    "tune|m=SGI R10000|k=matmul|n=96|b=200000|faults=none|trials=1|retries=2|obj=cycles|pf=off|db=off|sample=off|incr=off|confirm=adaptive"
    (Daemon.session_tag Daemon.default_config ~kernel:"matmul" ~n:96
       ~machine:sgi ~budget:200_000 ~objective:Core.Objective.Cycles
       ~prefilter:None);
  Alcotest.(check string) "daemon, warm-start db"
    "tune|m=Sun UltraSparc IIe|k=matvec|n=64|b=100000|faults=none|trials=1|retries=2|obj=energy|pf=4|db=warm|sample=off|incr=off|confirm=adaptive"
    (Daemon.session_tag
       {
         Daemon.default_config with
         Daemon.db_file = Some "store.db";
         warm_start = true;
       }
       ~kernel:"matvec" ~n:64 ~machine:Machine.ultrasparc_iie ~budget:100_000
       ~objective:Core.Objective.Energy ~prefilter:(Some 4))

let suite =
  [
    Alcotest.test_case "json: roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: parse errors" `Quick test_json_errors;
    Alcotest.test_case "json: accessors" `Quick test_json_accessors;
    Alcotest.test_case "errors: shared schema" `Quick test_error_schema;
    Alcotest.test_case "faults: service plans" `Quick test_service_faults;
    Alcotest.test_case "daemon: tune + shared memo" `Quick
      test_daemon_tune_and_memo_sharing;
    Alcotest.test_case "daemon: bad requests" `Quick test_daemon_bad_requests;
    Alcotest.test_case "daemon: admission control" `Quick
      test_daemon_admission_control;
    Alcotest.test_case "daemon: deadline + resume" `Quick
      test_daemon_deadline_and_resume;
    Alcotest.test_case "daemon: cancel + shutdown" `Quick
      test_daemon_cancel_and_shutdown;
    Alcotest.test_case "daemon: watchdog quarantine" `Quick
      test_daemon_watchdog_quarantine;
    Alcotest.test_case "daemon: client disconnect" `Quick
      test_daemon_disconnect_drops_session;
    Alcotest.test_case "daemon: crash recovery replay" `Quick
      test_daemon_recovery_replay;
    Alcotest.test_case "daemon: degraded db" `Quick test_daemon_degraded_db;
    Alcotest.test_case "checkpoint tags pinned" `Quick
      test_checkpoint_tags_pinned;
  ]
