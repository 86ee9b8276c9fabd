(* Quickstart: optimize Matrix Multiply for the simulated SGI R10000.

   Run with:  dune exec examples/quickstart.exe

   The two-phase optimizer (Core.Eco.optimize) derives parameterized
   variants from compiler models, searches their parameter spaces
   empirically on the simulated machine, and returns the best version
   found, its parameters and the search log. *)

let () =
  let machine = Machine.sgi_r10000 in
  let kernel = Kernels.Matmul.kernel in
  let n = 128 in
  Format.printf "Tuning %s (n=%d) for %a@.@." kernel.Kernels.Kernel.name n
    Machine.pp machine;

  (* A budget caps the simulated flops per candidate measurement, like
     timing a few iterations instead of the whole run. *)
  let mode = Core.Executor.Budget 200_000 in
  let result = Core.Eco.optimize ~mode machine kernel ~n in

  let outcome = result.Core.Eco.outcome in
  Format.printf "Winning variant: %s@."
    outcome.Core.Search.variant.Core.Variant.name;
  Format.printf "Parameters:      %s@."
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s=%d" k v)
          outcome.Core.Search.bindings));
  Format.printf "Prefetch:        %s@."
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s@%d" k v)
          outcome.Core.Search.prefetch));
  Format.printf "Performance:     %.1f MFLOPS (theoretical peak %.0f)@."
    result.Core.Eco.measurement.Core.Executor.mflops
    (Machine.peak_mflops machine);
  Format.printf "Search cost:     %d candidate executions@.@."
    (Core.Search_log.points result.Core.Eco.log);

  (* The untransformed kernel, for contrast — measured through the same
     engine the search used. *)
  let naive =
    Core.Engine.measure_program result.Core.Eco.engine kernel ~n ~mode
      kernel.Kernels.Kernel.program
  in
  Format.printf "Untransformed:   %.1f MFLOPS (%.1fx speedup)@.@."
    naive.Core.Executor.mflops
    (result.Core.Eco.measurement.Core.Executor.mflops
    /. naive.Core.Executor.mflops);

  Format.printf "Optimized loop nest:@.%a" Ir.Program.pp
    result.Core.Eco.program
