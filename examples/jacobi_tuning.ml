(* Jacobi relaxation, the paper's second case study: the optimizer
   discovers that copying is not profitable for a stencil (the retained
   group is not invariant in any cache loop), keeps the B neighbourhood
   in rotating registers along I, and tiles for L1.

   Run with:  dune exec examples/jacobi_tuning.exe *)

let show_variant (v : Core.Variant.t) =
  Format.printf "  %s: order %s, copies: %s@." v.Core.Variant.name
    (String.concat " "
       (List.map String.uppercase_ascii v.Core.Variant.element_order))
    (match v.Core.Variant.copies with
    | [] -> "none (stencil reuse does not amortize a copy)"
    | cs ->
      String.concat ", "
        (List.map (fun (c : Core.Variant.copy_spec) -> c.Core.Variant.array) cs))

let () =
  let kernel = Kernels.Jacobi3d.kernel in
  let n = 96 in
  let mode = Core.Executor.Budget 200_000 in

  Format.printf "Phase 1 on the SGI derives:@.";
  List.iter show_variant (Core.Derive.variants Machine.sgi_r10000 kernel);
  Format.printf "@.";

  List.iter
    (fun machine ->
      let result = Core.Eco.optimize ~mode machine kernel ~n in
      let native =
        Baselines.Native_compiler.measure result.Core.Eco.engine kernel ~n ~mode
      in
      Format.printf "%-22s ECO %6.1f MFLOPS  (native compiler %6.1f)  [%s %s]@."
        machine.Machine.name result.Core.Eco.measurement.Core.Executor.mflops
        native.Core.Executor.mflops
        result.Core.Eco.outcome.Core.Search.variant.Core.Variant.name
        (String.concat " "
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=%d" k v)
              result.Core.Eco.outcome.Core.Search.bindings)))
    [ Machine.sgi_r10000; Machine.ultrasparc_iie ];

  (* The rotating-register stencil body the paper shows in Figure 2(b). *)
  let result = Core.Eco.optimize ~mode Machine.sgi_r10000 kernel ~n in
  Format.printf "@.Optimized stencil (SGI):@.%a" Ir.Program.pp
    result.Core.Eco.program
