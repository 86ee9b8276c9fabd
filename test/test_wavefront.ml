(* Legality pruning on a dependence-carrying kernel: the optimizer must
   only produce correct variants for the wavefront, and the dependence
   analysis must forbid the transformations that would break it. *)

module Kernel = Kernels.Kernel
module Wavefront = Kernels.Wavefront

let program = Wavefront.kernel.Kernel.program
let fast = Core.Executor.Budget 20_000

let test_reference_matches () =
  let n = 12 in
  let result = Kernel.run_original Wavefront.kernel n in
  let got = List.assoc "a" result.Ir.Exec.arrays in
  let want = Wavefront.reference n in
  Array.iteri
    (fun i w ->
      if Float.abs (w -. got.(i)) > 1e-9 *. Float.max 1.0 (Float.abs w) then
        Alcotest.failf "a[%d] differs" i)
    want

let test_dependences_found () =
  let deps = Analysis.Depend.analyze program in
  Alcotest.(check bool) "has dependences" true (deps <> []);
  (* Every dependence is carried by t with distance 1. *)
  List.iter
    (fun (d : Analysis.Depend.t) ->
      Alcotest.(check bool) "t distance 1" true
        (List.assoc "t" d.Analysis.Depend.dirs = Analysis.Depend.Dist 1))
    deps

let test_interchange_illegal () =
  let deps = Analysis.Depend.analyze program in
  Alcotest.(check bool) "t..i legal" true
    (Analysis.Depend.permutation_legal deps [ "t"; "i" ]);
  Alcotest.(check bool) "i..t illegal" false
    (Analysis.Depend.permutation_legal deps [ "i"; "t" ]);
  Alcotest.(check bool) "not fully permutable" false
    (Analysis.Depend.fully_permutable deps)

let test_t_not_jammable () =
  let deps = Analysis.Depend.analyze program in
  Alcotest.(check bool) "t cannot move innermost" false
    (Analysis.Depend.innermost_legal deps ~order:[ "t"; "i" ] "t")

let test_derive_produces_only_legal_variants () =
  let variants = Core.Derive.variants Machine.sgi_r10000 Wavefront.kernel in
  Alcotest.(check bool) "at least one variant" true (variants <> []);
  List.iter
    (fun (v : Core.Variant.t) ->
      (* t is never unroll-and-jammed and the element order keeps t
         outside i. *)
      Alcotest.(check bool)
        (v.Core.Variant.name ^ ": t not jammed")
        false
        (List.mem_assoc "t" v.Core.Variant.unrolls);
      Alcotest.(check (list string))
        (v.Core.Variant.name ^ ": order preserved")
        [ "t"; "i" ] v.Core.Variant.element_order)
    variants

let test_derived_variants_compute_correctly () =
  let n = 11 in
  let want = Wavefront.reference n in
  List.iter
    (fun (v : Core.Variant.t) ->
      let bindings =
        List.map
          (fun p ->
            ( p.Core.Param.name,
              match p.Core.Param.kind with
              | Core.Param.Unroll -> 2
              | Core.Param.Tile -> 4 ))
          (Core.Variant.params v)
      in
      let p = Core.Variant.instantiate v ~bindings in
      let got = List.assoc "a" (Ir.Exec.run ~params:[ ("n", n) ] p).Ir.Exec.arrays in
      Array.iteri
        (fun i w ->
          if Float.abs (w -. got.(i)) > 1e-9 *. Float.max 1.0 (Float.abs w) then
            Alcotest.failf "%s: a[%d] differs" v.Core.Variant.name i)
        want)
    (Core.Derive.variants Machine.sgi_r10000 Wavefront.kernel)

let test_eco_end_to_end_correct () =
  let r = Core.Eco.optimize ~mode:fast Machine.sgi_r10000 Wavefront.kernel ~n:32 in
  let n = 14 in
  let got =
    List.assoc "a"
      (Ir.Exec.run ~params:[ ("n", n) ] r.Core.Eco.program)
        .Ir.Exec.arrays
  in
  let want = Wavefront.reference n in
  Array.iteri
    (fun i w ->
      if Float.abs (w -. got.(i)) > 1e-9 *. Float.max 1.0 (Float.abs w) then
        Alcotest.failf "tuned wavefront: a[%d] differs" i)
    want

let test_no_rotation_on_written_array () =
  (* A is written, so rotating scalar replacement must not fire. *)
  let p = Transform.Scalar_replace.apply program in
  let regs =
    List.filter
      (fun (d : Ir.Decl.t) -> d.Ir.Decl.storage = Ir.Decl.Register)
      p.Ir.Program.decls
  in
  Alcotest.(check int) "no rotation registers" 0 (List.length regs)

let suite =
  [
    Alcotest.test_case "reference matches" `Quick test_reference_matches;
    Alcotest.test_case "dependences found" `Quick test_dependences_found;
    Alcotest.test_case "interchange illegal" `Quick test_interchange_illegal;
    Alcotest.test_case "t not jammable" `Quick test_t_not_jammable;
    Alcotest.test_case "derive: only legal variants" `Quick
      test_derive_produces_only_legal_variants;
    Alcotest.test_case "derive: variants correct" `Quick
      test_derived_variants_compute_correctly;
    Alcotest.test_case "eco: end-to-end correct" `Quick test_eco_end_to_end_correct;
    Alcotest.test_case "no rotation on written array" `Quick
      test_no_rotation_on_written_array;
  ]
