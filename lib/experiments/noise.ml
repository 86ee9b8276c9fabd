type entry = {
  kernel : string;
  sigma : float;
  trials : int;
  mflops : float;
  degradation_pct : float;
  points : int;
  retries : int;
}

let sigmas = [ 0.0; 0.01; 0.05; 0.10; 0.20 ]
let transient = 0.02

let cases () =
  [ (Kernels.Matmul.kernel, 96); (Kernels.Jacobi3d.kernel, 40) ]

let run ?(machine = Machine.sgi_r10000) () =
  let mode = Config.budget () in
  List.concat_map
    (fun ((kernel : Kernels.Kernel.t), n) ->
      (* The fault-free reference: the optimum the search finds when it
         can trust every measurement.  Also the engine every chosen
         point is re-measured on, so degradations compare true costs. *)
      let clean = Core.Engine.create machine in
      let reference = Core.Eco.optimize_with ~mode clean kernel ~n in
      let c_ref = Core.Executor.cycles reference.Core.Eco.measurement in
      List.map
        (fun sigma ->
          if sigma = 0.0 then
            {
              kernel = kernel.Kernels.Kernel.name;
              sigma;
              trials = 1;
              mflops = reference.Core.Eco.measurement.Core.Executor.mflops;
              degradation_pct = 0.0;
              points = Core.Search_log.points reference.Core.Eco.log;
              retries = 0;
            }
          else begin
            let faults = Faults.make ~seed:11 ~noise:sigma ~transient () in
            (* A noisier machine needs quadratically more repeats: the
               search's near-tie decisions need the aggregate's noise
               held at ~0.4% regardless of sigma, so trials scale with
               sigma^2 (and trial to completion — the adaptive early
               stop trades exactly this robustness for speed).  Each
               trial re-draws the injected noise but reuses the one
               deterministic simulation, mirroring cheap re-timing of a
               compiled candidate on a real machine. *)
            let trials =
              max 3 (int_of_float (ceil (90_000.0 *. sigma *. sigma)))
            in
            let protocol =
              { Core.Engine.default_protocol with trials; min_trials = trials }
            in
            let engine = Core.Engine.create ~faults ~protocol machine in
            let r = Core.Eco.optimize_with ~mode engine kernel ~n in
            let o = r.Core.Eco.outcome in
            (* What the noisy search chose, at its true (clean) cost. *)
            let true_m =
              match
                Core.Search.measure_point clean ~n ~mode o.Core.Search.variant
                  ~bindings:o.Core.Search.bindings
                  ~prefetch:o.Core.Search.prefetch
              with
              | Some out -> out.Core.Search.measurement
              | None -> o.Core.Search.measurement
            in
            let c = Core.Executor.cycles true_m in
            {
              kernel = kernel.Kernels.Kernel.name;
              sigma;
              trials;
              mflops = true_m.Core.Executor.mflops;
              degradation_pct = (c -. c_ref) /. c_ref *. 100.0;
              points = Core.Search_log.points r.Core.Eco.log;
              retries = (Core.Engine.stats engine).Core.Engine.retries;
            }
          end)
        sigmas)
    (cases ())

let render entries =
  Printf.sprintf "%-10s %7s %7s %10s %14s %8s %8s" "Kernel" "sigma" "trials"
    "MFLOPS" "degradation%" "points" "retries"
  :: List.map
       (fun e ->
         Printf.sprintf "%-10s %7.2f %7d %10.1f %14.2f %8d %8d" e.kernel
           e.sigma e.trials e.mflops e.degradation_pct e.points e.retries)
       entries
