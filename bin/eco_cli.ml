(* Command-line driver for the ECO reproduction: inspect machines,
   derive variants, tune kernels, run experiments. *)

let kernels =
  [
    ("matmul", Kernels.Matmul.kernel);
    ("jacobi3d", Kernels.Jacobi3d.kernel);
    ("matvec", Kernels.Matvec.kernel);
    ("stencil2d", Kernels.Stencil2d.kernel);
    ("wavefront", Kernels.Wavefront.kernel);
  ]

let kernel_conv =
  let parse s =
    match List.assoc_opt (String.lowercase_ascii s) kernels with
    | Some k -> Ok k
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown kernel %s (known: %s)" s
             (String.concat ", " (List.map fst kernels))))
  in
  let print fmt (k : Kernels.Kernel.t) =
    Format.pp_print_string fmt k.Kernels.Kernel.name
  in
  Cmdliner.Arg.conv (parse, print)

let machine_conv =
  let parse s =
    match Machine.by_name s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown machine %s (known: %s)" s
             (String.concat ", "
                (List.map (fun (m : Machine.t) -> m.Machine.name) Machine.all))))
  in
  let print fmt (m : Machine.t) = Format.pp_print_string fmt m.Machine.name in
  Cmdliner.Arg.conv (parse, print)

let objective_conv =
  let parse s =
    match Core.Objective.of_string s with
    | Some o -> Ok o
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown objective %s (known: %s)" s
             (String.concat ", "
                (List.map Core.Objective.to_string Core.Objective.all))))
  in
  let print fmt o = Format.pp_print_string fmt (Core.Objective.to_string o) in
  Cmdliner.Arg.conv (parse, print)

open Cmdliner

let machine_arg =
  Arg.(
    value
    & opt machine_conv Machine.sgi_r10000
    & info [ "m"; "machine" ] ~docv:"MACHINE"
        ~doc:
          "Target machine model (sgi, sun, generic, modern/3level, mini).")

let kernel_arg =
  Arg.(
    value
    & opt kernel_conv Kernels.Matmul.kernel
    & info [ "k"; "kernel" ] ~docv:"KERNEL"
        ~doc:"Kernel to optimize (matmul, jacobi3d, matvec, stencil2d, wavefront).")

let size_arg default =
  Arg.(
    value & opt int default
    & info [ "n"; "size" ] ~docv:"N" ~doc:"Problem size.")

let budget_arg =
  Arg.(
    value & opt int 400_000
    & info [ "b"; "budget" ] ~docv:"FLOPS"
        ~doc:"Flop budget per simulated measurement (0 = full simulation).")

let mode_of_budget b =
  if b <= 0 then Core.Executor.Full else Core.Executor.Budget b

let bindings_str bindings =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) bindings)

(* --- describe --- *)

let describe () =
  List.iter (fun m -> Format.printf "%a@." Machine.pp m) Machine.all;
  Format.printf "@.";
  List.iter
    (fun (_, (k : Kernels.Kernel.t)) ->
      Format.printf "%s: %s@.%a@." k.Kernels.Kernel.name
        k.Kernels.Kernel.description Ir.Program.pp k.Kernels.Kernel.program)
    kernels

let describe_cmd =
  Cmd.v
    (Cmd.info "describe" ~doc:"List machine models and kernels.")
    Term.(const describe $ const ())

(* --- derive --- *)

let derive machine kernel =
  let variants = Core.Derive.variants machine kernel in
  Format.printf "%d variants derived for %s on %s@.@." (List.length variants)
    kernel.Kernels.Kernel.name machine.Machine.name;
  List.iter
    (fun v ->
      Format.printf "%a" Core.Variant.pp v;
      List.iter
        (fun (l, loop, t, p, c) ->
          Format.printf "  %-4s %-3s %-34s %-10s %s@." l loop t p c)
        (Core.Variant.table_rows v);
      Format.printf "@.")
    variants

let derive_cmd =
  Cmd.v
    (Cmd.info "derive"
       ~doc:"Phase 1: derive the parameterized variants for a kernel.")
    Term.(const derive $ machine_arg $ kernel_arg)

(* --- tune --- *)

(* Write paths take the single-writer advisory lock; read-only commands
   (stat, export) don't, so they work alongside a live writer. *)
let load_db ?(lock = false) cmd file =
  match Perfdb.load ~lock file with
  | db -> db
  | exception Perfdb.Corrupt msg ->
    Format.eprintf "eco %s: corrupt performance database %s: %s@." cmd file msg;
    exit 1
  | exception Perfdb.Locked msg ->
    Format.eprintf
      "eco %s: %s@.eco %s: wait for the other writer to finish, or point \
       --db at a different file@."
      cmd msg cmd;
    Format.eprintf "%s@."
      (Serve.Errors.to_cli_line
         (Serve.Errors.make ~code:"db_locked"
            ~data:[ ("path", Serve.Json.String file) ]
            msg));
    exit 1

let tune machine kernel n budget objective prefilter profile validate
    faults_spec trials retries checkpoint checkpoint_every die_after db_file
    no_warm_start sample incremental confirm timeout =
  let mode = mode_of_budget budget in
  let faults =
    match faults_spec with
    | None -> Faults.none
    | Some s -> (
      try Faults.of_spec s
      with Invalid_argument m ->
        Format.eprintf "eco tune: bad --faults spec: %s@." m;
        exit 2)
  in
  let trials = max 1 trials and retries = max 0 retries in
  let protocol =
    { Core.Engine.default_protocol with trials; max_retries = retries }
  in
  let engine =
    Core.Engine.create ~faults ~protocol ~objective ?prefilter machine
  in
  let sampling =
    match sample with
    | None -> None
    | Some spec -> (
      try Some (Memsim.Sampling.parse spec)
      with Invalid_argument m ->
        Format.eprintf "eco tune: bad --sample spec: %s@." m;
        exit 2)
  in
  Core.Engine.set_sampling engine sampling;
  Core.Engine.set_incremental engine incremental;
  (match confirm with
  | Some k when k < 1 ->
    Format.eprintf "eco tune: --confirm must be at least 1@.";
    exit 2
  | _ -> ());
  Core.Engine.set_confirm_override engine confirm;
  let db =
    match db_file with
    | None -> None
    | Some file ->
      let db = load_db ~lock:true "tune" file in
      Core.Engine.set_db engine ~warm_start:(not no_warm_start) db;
      Some db
  in
  (match checkpoint with
  | None -> ()
  | Some file -> (
    let tag =
      Core.Eco.checkpoint_tag ~machine ~kernel:kernel.Kernels.Kernel.name ~n
        ~budget ~faults ~protocol ~objective ~prefilter
        ~db:
          (match db_file with
          | None -> `Off
          | Some _ when no_warm_start -> `Exact
          | Some _ -> `Warm)
        ~sampling ~incremental ~confirm
    in
    Core.Engine.set_checkpoint engine ~every:checkpoint_every ~tag file;
    match Core.Engine.load_checkpoint engine ~tag file with
    | exception Core.Engine.Checkpoint_mismatch msg ->
      Format.eprintf "eco tune: %s@." msg;
      exit 2
    | None -> ()
    | Some resume ->
      Format.printf "resumed:      %d memo entries (%d fresh evaluations%s)@."
        resume.Core.Engine.resumed_entries resume.Core.Engine.resumed_fresh
        (match resume.Core.Engine.resumed_best_cycles with
        | Some c -> Printf.sprintf ", best %.0f cycles" c
        | None -> "")));
  (match die_after with
  | Some k -> Core.Engine.set_eval_limit engine k
  | None -> ());
  if faults.Faults.active then
    Format.printf "faults:       %s (trials=%d, retries=%d)@."
      (Faults.to_spec faults) trials retries;
  if sampling <> None || incremental || confirm <> None then
    Format.printf "replay:       sample=%s, incremental=%s, confirm=%s@."
      (match sampling with
      | Some sp -> Memsim.Sampling.to_string sp
      | None -> "off")
      (if incremental then "on" else "off")
      (match confirm with
      | Some k -> string_of_int k
      | None -> "adaptive");
  (match timeout with
  | Some t when t > 0.0 ->
    Core.Engine.set_deadline engine (Some (Unix.gettimeofday () +. t))
  | Some _ ->
    Format.eprintf "eco tune: --timeout must be positive@.";
    exit 2
  | None -> ());
  let log = Core.Search_log.create () in
  let r =
    match Core.Eco.optimize_with ~mode ~log engine kernel ~n with
    | r -> r
    | exception Core.Engine.Eval_limit_reached k ->
      (* Simulated SIGKILL: no final checkpoint — only the last
         periodic one survives, exactly like a real kill. *)
      Format.eprintf "eco tune: killed after %d fresh evaluations (--die-after)@." k;
      exit 3
    | exception Core.Engine.Deadline_exceeded ->
      (* Typed partial result: persist the cursor, report best-so-far. *)
      if checkpoint <> None then Core.Engine.checkpoint_now engine;
      let t = match timeout with Some t -> t | None -> 0.0 in
      Format.printf "timeout:      %.3gs deadline exceeded after %d points; \
                     best-so-far follows@."
        t (Core.Search_log.points log);
      (match Core.Search_log.best log with
      | None ->
        Format.eprintf "eco tune: timed out before any point was measured@.";
        exit 4
      | Some e ->
        Format.printf "best variant: %s@." e.Core.Search_log.variant;
        Format.printf "parameters:   %s@." (bindings_str e.Core.Search_log.bindings);
        Format.printf "prefetch:     %s@."
          (if e.Core.Search_log.prefetch = [] then "(none)"
           else bindings_str e.Core.Search_log.prefetch);
        Format.printf "performance:  %.1f MFLOPS (partial)@."
          e.Core.Search_log.mflops;
        Format.printf "search:       %d points, %.2fs wall@."
          (Core.Search_log.points log)
          (Core.Search_log.seconds log);
        exit 0)
    | exception Core.Eco.No_feasible_variant { kernel; n; per_variant } ->
      Format.eprintf "eco tune: no feasible variant for %s at n=%d@." kernel n;
      List.iter
        (fun (v, why) ->
          Format.eprintf "  %-28s %s@." v (Core.Eco.describe_infeasibility why))
        per_variant;
      (* the same structured payload the service returns as its RPC error *)
      Format.eprintf "%s@."
        (Serve.Errors.to_cli_line
           (Serve.Errors.no_feasible_variant ~kernel ~n per_variant));
      exit 1
  in
  if checkpoint <> None then Core.Engine.checkpoint_now engine;
  let o = r.Core.Eco.outcome in
  Format.printf "best variant: %s@." o.Core.Search.variant.Core.Variant.name;
  Format.printf "parameters:   %s@." (bindings_str o.Core.Search.bindings);
  Format.printf "prefetch:     %s@."
    (if o.Core.Search.prefetch = [] then "(none)"
     else bindings_str o.Core.Search.prefetch);
  Format.printf "performance:  %.1f MFLOPS (peak %.0f)@."
    r.Core.Eco.measurement.Core.Executor.mflops
    (Machine.peak_mflops machine);
  Format.printf "search:       %d points, %.2fs wall@."
    (Core.Search_log.points r.Core.Eco.log)
    (Core.Search_log.seconds r.Core.Eco.log);
  Format.printf "engine:       %a@." Core.Engine.pp_stats
    (Core.Engine.stats r.Core.Eco.engine);
  (match db with
  | None -> ()
  | Some db ->
    let s = Core.Engine.stats r.Core.Eco.engine in
    let dst = Perfdb.stat db in
    Format.printf
      "db:           %d hits, %d warm-start seeds, %d records appended \
       (%s: %d measurements, %d summaries)@."
      s.Core.Engine.db_hits s.Core.Engine.warm_starts dst.Perfdb.appended
      (Perfdb.path db) dst.Perfdb.measurements dst.Perfdb.summaries;
    Perfdb.close db);
  if profile then
    Format.printf "profile:      %a@." Core.Engine.pp_profile
      (Core.Engine.stats r.Core.Eco.engine);
  if validate then begin
    let verdicts =
      Check.validate ~machine o.Core.Search.variant
        ~bindings:o.Core.Search.bindings ~prefetch:o.Core.Search.prefetch ~n
    in
    let bad = List.filter (fun (_, v) -> not (Check.Oracle.agrees v)) verdicts in
    if bad = [] then
      Format.printf "validated:    winning variant agrees with the reference at n=%s@."
        (String.concat ","
           (List.map (fun (s, _) -> string_of_int s) verdicts))
    else begin
      List.iter
        (fun (s, v) ->
          Format.printf "VALIDATION FAILED at n=%d: %s@." s (Check.Oracle.describe v);
          Format.printf "  repro: %s@."
            (Check.repro_line ~machine ~kernel:kernel.Kernels.Kernel.name
               (Check.Point
                  {
                    variant = o.Core.Search.variant;
                    bindings = o.Core.Search.bindings;
                    prefetch = o.Core.Search.prefetch;
                    n = s;
                  })))
        bad;
      exit 1
    end
  end;
  Format.printf "@.optimized code:@.%a" Ir.Program.pp r.Core.Eco.program

let tune_cmd =
  let objective_arg =
    Arg.(
      value
      & opt objective_conv Core.Objective.Cycles
      & info [ "objective" ] ~docv:"OBJ"
          ~doc:
            "What the search minimizes: $(b,cycles) (default, simulated run \
             time) or $(b,energy) (modelled per-access energy weighted by \
             hierarchy level, plus a static-per-cycle term).")
  in
  let prefilter_arg =
    Arg.(
      value
      & opt ~vopt:(Some Core.Engine.default_prefilter) (some int) None
      & info [ "prefilter" ] ~docv:"K"
          ~doc:
            (Printf.sprintf
               "Analytical pre-filter: rank each candidate batch with the \
                cache-model predictor and fully simulate only the top K \
                (default off; $(b,--prefilter) alone means K=%d; K<1 \
                disables).  Skipped candidates are never simulated, cutting \
                search cost; the chosen point may differ slightly from the \
                unfiltered search."
               Core.Engine.default_prefilter))
  in
  let profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Print a wall-time breakdown of evaluation (bytecode compilation \
             vs. execution vs. hierarchy simulation vs. memo lookups) and \
             demand-trace cache behaviour.")
  in
  let validate_arg =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Differentially check the winning variant against the reference \
             interpreter before reporting it (exit 1 on mismatch).")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Inject seeded measurement faults, e.g. \
             'seed=7,noise=0.05,transient=0.02,hang=0.01,outlier=0.01'. \
             Deterministic: the same spec reproduces the same faults.")
  in
  let trials_arg =
    Arg.(
      value & opt int 1
      & info [ "trials" ] ~docv:"K"
          ~doc:
            "Measure each candidate K times and commit the median / \
             trimmed mean (with adaptive early stop once the spread is \
             tight).  Only meaningful under --faults; 1 commits the \
             single measurement unchanged.")
  in
  let retries_arg =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"R"
          ~doc:
            "Retry budget per trial for transient failures and hangs \
             (each retry re-measures at once); a candidate that exhausts \
             it is quarantined and never re-measured.")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Crash-only persistence: periodically save the evaluation \
             memo to FILE and resume from it if it exists.  A killed run \
             resumes to the identical final answer.")
  in
  let checkpoint_every_arg =
    Arg.(
      value & opt int 16
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Checkpoint after every N fresh evaluations (default 16).")
  in
  let die_after_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "die-after" ] ~docv:"K"
          ~doc:
            "Abort the process (exit 3) after K fresh evaluations — \
             deterministic crash injection for exercising --checkpoint \
             recovery.")
  in
  let db_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "db" ] ~docv:"FILE"
          ~doc:
            "Persistent performance database: serve exact repeat points from \
             FILE without re-simulating, append every fresh successful \
             measurement back, warm-start the search from the \
             nearest-neighbor recorded summary, and record this run's \
             summary for future transfers.  The file is created if missing \
             and shared safely between concurrent runs (append-only, \
             crash-recoverable).")
  in
  let no_warm_start_arg =
    Arg.(
      value & flag
      & info [ "no-warm-start" ]
          ~doc:
            "With --db, disable the nearest-neighbor transfer seeding and \
             run the unmodified search; the exact-hit tier and result \
             recording stay active.")
  in
  let sample_arg =
    Arg.(
      value
      & opt ~vopt:(Some "") (some string) None
      & info [ "sample" ] ~docv:"SPEC"
          ~doc:
            (Printf.sprintf
               "Sampled simulation: measure candidates from a shrunken trace \
                via periodic replay windows and extrapolate (estimates \
                steer the search, the leading candidates are re-measured \
                exactly before the winner is declared).  SPEC is \
                comma-separated $(b,shrink)/$(b,window)/$(b,gap)/$(b,warm) \
                fields, e.g. 'shrink=4,window=8192'; $(b,--sample) alone \
                uses %s." (Memsim.Sampling.to_string Memsim.Sampling.default)))
  in
  let incremental_arg =
    Arg.(
      value & flag
      & info [ "incremental" ]
          ~doc:
            "Incremental prefetch re-simulation: within a distance sweep \
             over one array, replay only the base plan (recording prefetch \
             timeliness slack), re-price the sibling distances analytically \
             and re-measure only the estimated best.  Cheaper sweeps; the \
             chosen distances may differ slightly from the full search.")
  in
  let confirm_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "confirm" ] ~docv:"K"
          ~doc:
            "With --sample, confirm exactly the top K leaderboard \
             candidates before declaring the winner (min 1) instead of the \
             adaptive policy, which starts from the full leaderboard and \
             shrinks the confirm set as the sampled estimator proves its \
             ranking on the kernel.  The winner is re-measured exactly \
             either way.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Wall-clock deadline for the whole search.  On expiry the run \
             prints a $(b,timeout:) marker and the best point found so far \
             (a typed partial result), checkpoints if --checkpoint is \
             armed, and exits 0 (4 if nothing was measured yet).")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Run the full two-phase ECO optimization for a kernel.")
    Term.(
      const tune $ machine_arg $ kernel_arg $ size_arg 256 $ budget_arg
      $ objective_arg $ prefilter_arg $ profile_arg $ validate_arg
      $ faults_arg $ trials_arg $ retries_arg $ checkpoint_arg
      $ checkpoint_every_arg $ die_after_arg $ db_arg $ no_warm_start_arg
      $ sample_arg $ incremental_arg $ confirm_arg $ timeout_arg)

(* --- check --- *)

let check machine kernel_opt seed trials jobs max_ulps size variant_name
    pipeline_str point_str prefetch_str =
  let fail_usage msg =
    Format.eprintf "eco check: %s@." msg;
    exit 2
  in
  let prefetch =
    match prefetch_str with
    | None -> []
    | Some s -> ( try Check.parse_bindings s with Invalid_argument m -> fail_usage m)
  in
  match (variant_name, pipeline_str) with
  | None, None ->
    (* Harness mode: seeded random trials, shrunk repros on failure. *)
    let ks =
      match kernel_opt with None -> List.map snd kernels | Some k -> [ k ]
    in
    let report = Check.run ~machine ~jobs ~max_ulps ~seed ~trials ks in
    Format.printf "%a" Check.pp_report report;
    if not (Check.ok report) then exit 1
  | Some _, Some _ -> fail_usage "--variant and --pipeline are exclusive"
  | _ ->
    (* Repro mode: replay one explicit case. *)
    let kernel =
      match kernel_opt with
      | Some k -> k
      | None -> fail_usage "repro mode needs -k KERNEL"
    in
    let case =
      match (variant_name, pipeline_str) with
      | Some vname, None -> (
        match Check.find_variant ~machine kernel vname with
        | None ->
          fail_usage
            (Printf.sprintf "no variant %s derived for %s on %s" vname
               kernel.Kernels.Kernel.name machine.Machine.name)
        | Some variant ->
          let bindings =
            match point_str with
            | None -> fail_usage "--variant needs --point ui=4,tj=8,..."
            | Some s -> (
              try Check.parse_bindings s with Invalid_argument m -> fail_usage m)
          in
          Check.Point { variant; bindings; prefetch; n = size })
      | None, Some s -> (
        match Check.Pipe.of_string s with
        | exception Invalid_argument m -> fail_usage m
        | pipe -> Check.Pipeline { pipe; n = size })
      | _ -> assert false
    in
    let verdict = Check.run_case ~max_ulps ~machine kernel case in
    Format.printf "%s n=%d: %s@." kernel.Kernels.Kernel.name size
      (Check.Oracle.describe verdict);
    if not (Check.Oracle.agrees verdict) then exit 1

let check_cmd =
  let kernel_opt_arg =
    Arg.(
      value
      & opt (some kernel_conv) None
      & info [ "k"; "kernel" ] ~docv:"KERNEL"
          ~doc:"Kernel to check (default: all five).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Random seed; the same seed reproduces the same trials.")
  in
  let trials_arg =
    Arg.(
      value & opt int 100
      & info [ "trials" ] ~docv:"K" ~doc:"Trials per kernel.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"JOBS"
          ~doc:
            "Run the trials on JOBS domains; values below 1 run them \
             serially.  The report is identical at any value; only wall \
             time changes.")
  in
  let max_ulps_arg =
    Arg.(
      value & opt int Check.Oracle.default_max_ulps
      & info [ "max-ulps" ] ~docv:"U"
          ~doc:"Comparison tolerance in units-in-the-last-place.")
  in
  let size_opt_arg =
    Arg.(
      value & opt int 13
      & info [ "size" ] ~docv:"N" ~doc:"Problem size (repro mode).")
  in
  let variant_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "variant" ] ~docv:"NAME"
          ~doc:"Replay one derived variant by name (needs --point).")
  in
  let pipeline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "pipeline" ] ~docv:"SPEC"
          ~doc:
            "Replay one explicit transformation pipeline, e.g. \
             'permute:i,j,k;tile:j=5,k=7;copy:b;unroll:i=4;scalar'.")
  in
  let point_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "point" ] ~docv:"BINDINGS"
          ~doc:"Parameter bindings for --variant, e.g. ui=4,uj=2,tj=16.")
  in
  let prefetch_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "prefetch" ] ~docv:"DISTANCES"
          ~doc:"Prefetch layer for --variant, e.g. a=2,p_b=1.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differentially test transformed variants against the reference \
          interpreter: random feasible parameter bindings and random \
          transformation pipelines, with failures shrunk to minimal repro \
          commands.  Exit 1 on any mismatch.")
    Term.(
      const check $ machine_arg $ kernel_opt_arg $ seed_arg $ trials_arg
      $ jobs_arg $ max_ulps_arg $ size_opt_arg $ variant_arg $ pipeline_arg
      $ point_arg $ prefetch_arg)

(* --- run (single measurement of the original kernel) --- *)

let run_orig machine kernel n budget =
  let mode = mode_of_budget budget in
  let engine = Core.Engine.create machine in
  let m =
    Core.Engine.measure_program engine kernel ~n ~mode
      kernel.Kernels.Kernel.program
  in
  Format.printf "%s n=%d on %s (untransformed): %.1f MFLOPS@."
    kernel.Kernels.Kernel.name n machine.Machine.name m.Core.Executor.mflops;
  Format.printf "%a@." Memsim.Cost.pp m.Core.Executor.cost

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Measure the untransformed kernel (baseline).")
    Term.(const run_orig $ machine_arg $ kernel_arg $ size_arg 256 $ budget_arg)

(* --- codegen --- *)

let codegen machine kernel n budget fortran =
  let mode = mode_of_budget budget in
  let r = Core.Eco.optimize ~mode machine kernel ~n in
  let program = r.Core.Eco.program in
  if fortran then print_string (Ir.Codegen_f90.file program)
  else print_string (Ir.Codegen_c.file program)

let codegen_cmd =
  let fortran_arg =
    Arg.(
      value & flag
      & info [ "f90"; "fortran" ]
          ~doc:"Emit Fortran 90 (the paper's output language) instead of C.")
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:
         "Tune a kernel and emit the optimized version as a compilable C \
          (or Fortran 90) function on stdout.")
    Term.(
      const codegen $ machine_arg $ kernel_arg $ size_arg 256 $ budget_arg
      $ fortran_arg)

(* --- db (performance-database maintenance) --- *)

let db_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Performance database file.")

let db_stat file =
  let db = load_db "db stat" file in
  let s = Perfdb.stat db in
  Format.printf "%s: %d records (%d measurements, %d summaries), %d bytes@."
    file s.Perfdb.file_records s.Perfdb.measurements s.Perfdb.summaries
    s.Perfdb.bytes;
  if s.Perfdb.torn_bytes > 0 then
    Format.printf
      "recovered:    %d torn trailing bytes dropped (interrupted append)@."
      s.Perfdb.torn_bytes;
  Perfdb.iter_summaries db (fun sm ->
      Format.printf "  %-10s %-14s n=%-5d best %s %.1f MFLOPS (%d frontier)@."
        sm.Perfdb.kernel sm.Perfdb.machine sm.Perfdb.n
        sm.Perfdb.best.Perfdb.variant sm.Perfdb.best.Perfdb.mflops
        (List.length sm.Perfdb.frontier))

let db_compact file =
  let db = load_db ~lock:true "db compact" file in
  let before = Perfdb.stat db in
  Perfdb.compact db;
  let after = Perfdb.stat db in
  Format.printf "%s: %d records -> %d, %d bytes -> %d@." file
    before.Perfdb.file_records after.Perfdb.file_records before.Perfdb.bytes
    after.Perfdb.bytes

let db_export file =
  let db = load_db "db export" file in
  print_string (Perfdb.export db)

let db_cmd =
  Cmd.group
    (Cmd.info "db"
       ~doc:
         "Inspect and maintain a persistent performance database (see tune \
          --db).")
    [
      Cmd.v
        (Cmd.info "stat"
           ~doc:"Print record counts and the recorded (kernel, machine, n) \
                 summaries.")
        Term.(const db_stat $ db_file_arg);
      Cmd.v
        (Cmd.info "compact"
           ~doc:
             "Rewrite the file as one frame per live record, dropping \
              superseded summary revisions (atomic).")
        Term.(const db_compact $ db_file_arg);
      Cmd.v
        (Cmd.info "export" ~doc:"Dump the database as JSON on stdout.")
        Term.(const db_export $ db_file_arg);
    ]

(* --- serve --- *)

let serve machine db_file warm_start dir checkpoint_every max_live
    max_queue deadline watchdog watchdog_retries progress_every faults_spec =
  let service_faults =
    match faults_spec with
    | None -> Faults.Service.none
    | Some s -> (
      try Faults.Service.of_spec s
      with Invalid_argument m ->
        Format.eprintf "eco serve: bad --faults spec: %s@." m;
        exit 2)
  in
  let cfg =
    {
      Serve.Daemon.default_config with
      machine;
      db_file;
      warm_start;
      checkpoint_dir = dir;
      checkpoint_every;
      max_live = max 1 max_live;
      max_queue = max 0 max_queue;
      default_deadline_s = deadline;
      watchdog_s = watchdog;
      watchdog_retries = max 0 watchdog_retries;
      progress_every_s = progress_every;
      service_faults;
    }
  in
  exit (Serve.Daemon.run cfg)

let serve_cmd =
  let dir_arg =
    Arg.(
      value & opt string ".eco-serve"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Session state directory: request files and periodic \
             checkpoints live here, and a restarted daemon replays \
             whatever a dead one left behind.")
  in
  let db_serve_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "db" ] ~docv:"FILE"
          ~doc:
            "Shared performance database (single-writer locked).  A \
             corrupt file degrades the persistence tier (db: degraded in \
             status) instead of killing the daemon.")
  in
  let warm_start_arg =
    Arg.(
      value & flag
      & info [ "warm-start" ]
          ~doc:
            "Enable nearest-neighbor transfer seeding from the database.  \
             Off by default in the service: warm starts make answers \
             depend on what the store happens to contain.")
  in
  let checkpoint_every_arg =
    Arg.(
      value & opt int 16
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Checkpoint each session after every N fresh evaluations.")
  in
  let max_live_arg =
    Arg.(
      value & opt int 2
      & info [ "max-live" ] ~docv:"N"
          ~doc:"Tuning sessions interleaved concurrently (default 2).")
  in
  let max_queue_arg =
    Arg.(
      value & opt int 8
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Sessions queued beyond the live limit before requests are \
             rejected with a typed busy error (default 8).")
  in
  let deadline_arg =
    Arg.(
      value & opt float 0.0
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:
            "Default per-request wall deadline (0 = none); requests may \
             override with params.deadline_s.")
  in
  let watchdog_arg =
    Arg.(
      value & opt float 0.0
      & info [ "watchdog" ] ~docv:"SECS"
          ~doc:
            "Hung-batch watchdog: a measurement batch exceeding SECS \
             counts as a stall, retried with backoff and quarantined \
             after --watchdog-retries stalls (0 = off).")
  in
  let watchdog_retries_arg =
    Arg.(
      value & opt int 2
      & info [ "watchdog-retries" ] ~docv:"N"
          ~doc:"Stalls tolerated before the session is quarantined.")
  in
  let progress_every_arg =
    Arg.(
      value & opt float 0.25
      & info [ "progress-every" ] ~docv:"SECS"
          ~doc:"Progress notification cadence (default 0.25s).")
  in
  let serve_faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Seeded service-level fault plan, e.g. \
             seed=7,hang=0.2,hang_s=0.05,disconnect=0.1,kill_after=12 — \
             injected hangs, client disconnects at progress events, and a \
             simulated SIGKILL (exit 9) at the Nth batch boundary.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the autotuning service: a crash-only daemon speaking \
          newline-delimited JSON-RPC on stdin/stdout that tunes \
          concurrently for many clients from one shared memo, trace cache \
          and performance database.")
    Term.(
      const serve $ machine_arg $ db_serve_arg $ warm_start_arg
      $ dir_arg $ checkpoint_every_arg $ max_live_arg $ max_queue_arg
      $ deadline_arg $ watchdog_arg $ watchdog_retries_arg
      $ progress_every_arg $ serve_faults_arg)

(* --- experiment --- *)

let experiment names =
  let print = print_endline in
  match names with
  | [] -> Experiments.Run_all.run_everything ~print ()
  | names -> List.iter (Experiments.Run_all.run ~print) names

let experiment_cmd =
  let names_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Experiments to run (default: all). Known: %s."
               (String.concat ", " Experiments.Run_all.names)))
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate the paper's tables and figures (see EXPERIMENTS.md).")
    Term.(const experiment $ names_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "eco" ~version:"1.0"
       ~doc:
         "Reproduction of 'Combining Models and Guided Empirical Search to \
          Optimize for Multiple Levels of the Memory Hierarchy' (CGO 2005).")
    [
      describe_cmd; derive_cmd; tune_cmd; run_cmd; codegen_cmd; check_cmd;
      serve_cmd; experiment_cmd; db_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
