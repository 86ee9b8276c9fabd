(* C code-generation tests.

   Structure checks always run; when a C compiler is available (it is in
   CI and the dev container), generated kernels are additionally
   compiled with gcc and executed against the IR executor's results —
   the strongest possible cross-validation of both the code generator
   and the executor. *)

open Ir
module Kernel = Kernels.Kernel
module Matmul = Kernels.Matmul
module Jacobi3d = Kernels.Jacobi3d

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let mm = Matmul.kernel.Kernel.program

(* --- structural checks --- *)

let test_prototype () =
  Alcotest.(check string) "prototype"
    "void matmul(ptrdiff_t n, double *restrict a, double *restrict b, double *restrict c)"
    (Codegen_c.prototype mm)

let test_contains_loops () =
  let code = Codegen_c.function_code mm in
  Alcotest.(check bool) "k loop" true (contains "for (ptrdiff_t k = 0;" code);
  Alcotest.(check bool) "column-major index" true (contains "(i) + (n)*((k))" code)

let test_tiled_code_uses_min () =
  let p =
    Transform.Tile.apply mm
      [ { Transform.Tile.var = "j"; size = 7; control = "jj" } ]
      ~control_order:[ "jj" ]
  in
  let code = Codegen_c.function_code p in
  Alcotest.(check bool) "ECO_MIN used" true (contains "ECO_MIN" code)

let test_unrolled_code_uses_floormult () =
  let p = Transform.Unroll_jam.apply mm "i" 4 in
  let code = Codegen_c.function_code p in
  Alcotest.(check bool) "ECO_FLOORMULT used" true (contains "ECO_FLOORMULT" code)

let test_temp_becomes_local () =
  let p =
    Transform.Tile.apply mm
      [
        { Transform.Tile.var = "j"; size = 6; control = "jj" };
        { Transform.Tile.var = "k"; size = 5; control = "kk" };
      ]
      ~control_order:[ "kk"; "jj" ]
  in
  let p =
    Transform.Copy_opt.apply p ~array:"b" ~temp:"p_b" ~at:"jj"
      ~dims:
        [
          { Transform.Copy_opt.base = Aff.var "kk"; extent = 5; bound = Aff.var "n" };
          { Transform.Copy_opt.base = Aff.var "jj"; extent = 6; bound = Aff.var "n" };
        ]
  in
  let code = Codegen_c.function_code p in
  Alcotest.(check bool) "static local temp" true
    (contains "static double p_b[30];" code);
  Alcotest.(check bool) "temp not a parameter" false
    (contains "restrict p_b" (Codegen_c.prototype p))

let test_registers_become_locals () =
  let p = Transform.Permute.apply mm [ "i"; "j"; "k" ] in
  let p = Transform.Scalar_replace.apply p in
  let code = Codegen_c.function_code p in
  Alcotest.(check bool) "double local" true (contains "double c_r0;" code)

let test_prefetch_becomes_builtin () =
  let p = Transform.Prefetch_insert.apply mm ~array:"a" ~distance:2 ~line_elems:4 in
  let code = Codegen_c.function_code p in
  Alcotest.(check bool) "__builtin_prefetch" true
    (contains "__builtin_prefetch(&a[" code)

let test_preamble_in_file () =
  let code = Codegen_c.file mm in
  Alcotest.(check bool) "include stddef" true (contains "#include <stddef.h>" code);
  Alcotest.(check bool) "helpers" true (contains "ECO_FLOORDIV" code)

(* --- Fortran 90 --- *)

let test_f90_subroutine () =
  let code = Codegen_f90.subroutine_code mm in
  Alcotest.(check bool) "subroutine header" true
    (contains "subroutine matmul(n, a, b, c)" code);
  Alcotest.(check bool) "0-based arrays" true
    (contains "real(8), intent(inout) :: a(0:n - 1, 0:n - 1)" code);
  Alcotest.(check bool) "do loop" true (contains "do k = 0, n - 1" code);
  Alcotest.(check bool) "multi-dim subscript" true (contains "a(i, k)" code)

let test_f90_tiled_min () =
  let p =
    Transform.Tile.apply mm
      [ { Transform.Tile.var = "j"; size = 7; control = "jj" } ]
      ~control_order:[ "jj" ]
  in
  let code = Codegen_f90.subroutine_code p in
  Alcotest.(check bool) "min intrinsic" true (contains "min(jj + 6, n - 1)" code);
  Alcotest.(check bool) "strided do" true (contains "do jj = 0, n - 1, 7" code)

let test_f90_unroll_helper () =
  let p = Transform.Unroll_jam.apply mm "i" 4 in
  let code = Codegen_f90.file p in
  Alcotest.(check bool) "floormult helper used" true
    (contains "eco_floormult(" code);
  Alcotest.(check bool) "helper defined" true
    (contains "pure integer function eco_floormult" code)

let test_f90_registers_and_temps () =
  let p = Transform.Permute.apply mm [ "i"; "j"; "k" ] in
  let p =
    Transform.Tile.apply p
      [
        { Transform.Tile.var = "j"; size = 6; control = "jj" };
        { Transform.Tile.var = "k"; size = 5; control = "kk" };
      ]
      ~control_order:[ "kk"; "jj" ]
  in
  let p =
    Transform.Copy_opt.apply p ~array:"b" ~temp:"p_b" ~at:"jj"
      ~dims:
        [
          { Transform.Copy_opt.base = Aff.var "kk"; extent = 5; bound = Aff.var "n" };
          { Transform.Copy_opt.base = Aff.var "jj"; extent = 6; bound = Aff.var "n" };
        ]
  in
  let p = Transform.Scalar_replace.apply p in
  let code = Codegen_f90.subroutine_code p in
  Alcotest.(check bool) "saved temp" true
    (contains "real(8), save :: p_b(0:4, 0:5)" code);
  Alcotest.(check bool) "register local" true (contains "real(8) :: c_r0" code)

let test_f90_prefetch_comment () =
  let p = Transform.Prefetch_insert.apply mm ~array:"a" ~distance:2 ~line_elems:4 in
  let code = Codegen_f90.subroutine_code p in
  Alcotest.(check bool) "prefetch comment" true (contains "! prefetch a(" code)

(* --- compile-and-run cross-validation --- *)

let gcc_available =
  lazy (Sys.command "gcc --version > /dev/null 2>&1" = 0)

let emit_doubles buf arr =
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string buf ", ";
      if i mod 8 = 7 then Buffer.add_string buf "\n  ";
      Buffer.add_string buf (Printf.sprintf "%.17g" v))
    arr

(* Build a driver that initializes parameter arrays exactly as the
   executor does, calls the kernel, and verifies the outputs the
   executor produced. *)
let compile_and_check ~test_name (kernel : Kernel.t) program n =
  let result =
    Exec.run ~params:[ (kernel.Kernel.size_param, n) ] program
  in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf (Codegen_c.file program);
  Buffer.add_string buf "\n#include <stdio.h>\n#include <math.h>\n";
  (* Inputs: the executor's deterministic initial values. *)
  let param_arrays =
    List.filter
      (fun (d : Decl.t) ->
        d.Decl.storage = Decl.Heap
        && List.exists (fun a -> Aff.vars a <> []) d.Decl.dims)
      program.Program.decls
  in
  List.iter
    (fun (d : Decl.t) ->
      let elements =
        List.fold_left
          (fun acc a -> acc * Aff.eval (fun _ -> n) a)
          1 d.Decl.dims
      in
      let dims = List.map (Aff.eval (fun _ -> n)) d.Decl.dims in
      let rec coords_of flat = function
        | [] -> []
        | [ _ ] -> [ flat ]
        | dim :: rest -> (flat mod dim) :: coords_of (flat / dim) rest
      in
      let init =
        Array.init elements (fun e ->
            Exec.initial_value_at d.Decl.name (coords_of e dims))
      in
      Buffer.add_string buf
        (Printf.sprintf "static double %s_data[%d] = {\n  " d.Decl.name elements);
      emit_doubles buf init;
      Buffer.add_string buf "\n};\n")
    param_arrays;
  (* Expected outputs from the executor. *)
  List.iter
    (fun (d : Decl.t) ->
      let expected = List.assoc d.Decl.name result.Exec.arrays in
      Buffer.add_string buf
        (Printf.sprintf "static double %s_expected[%d] = {\n  " d.Decl.name
           (Array.length expected));
      emit_doubles buf expected;
      Buffer.add_string buf "\n};\n")
    param_arrays;
  let call_args =
    String.concat ", "
      (List.map (fun _ -> string_of_int n) program.Program.params
      @ List.map (fun (d : Decl.t) -> d.Decl.name ^ "_data") param_arrays)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "int main(void) {\n\
       \  %s(%s);\n\
       \  int bad = 0;\n"
       program.Program.name call_args);
  List.iter
    (fun (d : Decl.t) ->
      let expected = List.assoc d.Decl.name result.Exec.arrays in
      Buffer.add_string buf
        (Printf.sprintf
           "  for (int i = 0; i < %d; i++) {\n\
            \    double w = %s_expected[i], g = %s_data[i];\n\
            \    double s = fabs(w) > 1.0 ? fabs(w) : 1.0;\n\
            \    if (fabs(w - g) > 1e-9 * s) bad++;\n\
            \  }\n"
           (Array.length expected) d.Decl.name d.Decl.name))
    param_arrays;
  Buffer.add_string buf "  printf(\"%d mismatches\\n\", bad);\n  return bad == 0 ? 0 : 1;\n}\n";
  let dir = Filename.temp_file ("eco_" ^ test_name) "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let c_file = Filename.concat dir "kernel.c" in
  let exe = Filename.concat dir "kernel" in
  let oc = open_out c_file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  let compile =
    Sys.command (Printf.sprintf "gcc -O1 -o %s %s -lm 2> %s/gcc.log" exe c_file dir)
  in
  if compile <> 0 then Alcotest.failf "%s: gcc failed (see %s)" test_name dir;
  let run = Sys.command (Printf.sprintf "%s > /dev/null" exe) in
  Alcotest.(check int) (test_name ^ ": C output matches executor") 0 run

let with_gcc f () =
  if Lazy.force gcc_available then f ()
  else Alcotest.skip ()

let test_c_naive_matmul () =
  compile_and_check ~test_name:"naive_mm" Matmul.kernel mm 13

let test_c_figure_1b () =
  let p = Transform.Permute.apply mm [ "i"; "j"; "k" ] in
  let p =
    Transform.Tile.apply p
      [
        { Transform.Tile.var = "j"; size = 6; control = "jj" };
        { Transform.Tile.var = "k"; size = 7; control = "kk" };
      ]
      ~control_order:[ "kk"; "jj" ]
  in
  let p =
    Transform.Copy_opt.apply p ~array:"b" ~temp:"p_b" ~at:"jj"
      ~dims:
        [
          { Transform.Copy_opt.base = Aff.var "kk"; extent = 7; bound = Aff.var "n" };
          { Transform.Copy_opt.base = Aff.var "jj"; extent = 6; bound = Aff.var "n" };
        ]
  in
  let p = Transform.Unroll_jam.apply p "i" 4 in
  let p = Transform.Unroll_jam.apply p "j" 2 in
  let p = Transform.Scalar_replace.apply p in
  let p = Transform.Prefetch_insert.apply p ~array:"a" ~distance:2 ~line_elems:4 in
  compile_and_check ~test_name:"figure_1b" Matmul.kernel p 13

let test_c_tuned_variant () =
  (* The real thing: generate C for an ECO-tuned variant. *)
  let r =
    Core.Eco.optimize ~mode:(Core.Executor.Budget 20_000) Machine.sgi_r10000
      Matmul.kernel ~n:24
  in
  compile_and_check ~test_name:"tuned_mm" Matmul.kernel
    r.Core.Eco.program 17

let test_c_jacobi_rotation () =
  let p = Jacobi3d.kernel.Kernel.program in
  let p = Transform.Unroll_jam.apply p "j" 2 in
  let p = Transform.Scalar_replace.apply p in
  compile_and_check ~test_name:"jacobi_rot" Jacobi3d.kernel p 9

(* --- golden output ---

   Exact emitted text for one tiled+unrolled+copied matmul variant.
   These pin the concrete shape of the generated code — loop headers,
   clipping via ECO_MIN/min, the FLOORMULT epilogue split, copy-buffer
   indexing — so an unintended emitter change shows up as a readable
   diff, not a silent formatting drift.  Regenerate by printing
   [function_code]/[subroutine_code] of this pipeline and reviewing the
   diff. *)

let golden_program =
  Check.Pipe.apply Matmul.kernel
    (Check.Pipe.of_string "tile:j=4,k=4;copy:b;unroll:i=2")

let golden_c =
  {golden|void matmul(ptrdiff_t n, double *restrict a, double *restrict b, double *restrict c) {
  static double p_b[16];
  for (ptrdiff_t jj = 0; jj <= n - 1; jj += 4) {
    for (ptrdiff_t kk = 0; kk <= n - 1; kk += 4) {
      for (ptrdiff_t p_b_c1 = 0; p_b_c1 <= ECO_MIN(3, -jj + n - 1); p_b_c1 += 1) {
        for (ptrdiff_t p_b_c0 = 0; p_b_c0 <= ECO_MIN(3, -kk + n - 1); p_b_c0 += 1) {
          p_b[(p_b_c0) + (4)*((p_b_c1))] = b[(kk + p_b_c0) + (n)*((jj + p_b_c1))];
        }
      }
      for (ptrdiff_t k = kk; k <= ECO_MIN(kk + 3, n - 1); k += 1) {
        for (ptrdiff_t j = jj; j <= ECO_MIN(jj + 3, n - 1); j += 1) {
          for (ptrdiff_t i = 0; i <= ((ECO_MAX(ECO_FLOORMULT(n, 2), 0) + 0) + -1); i += 2) {
            c[(i) + (n)*((j))] = (c[(i) + (n)*((j))] + (a[(i) + (n)*((k))] * p_b[(k - kk) + (4)*((j - jj))]));
            c[(i + 1) + (n)*((j))] = (c[(i + 1) + (n)*((j))] + (a[(i + 1) + (n)*((k))] * p_b[(k - kk) + (4)*((j - jj))]));
          }
          for (ptrdiff_t i = (ECO_MAX(ECO_FLOORMULT(n, 2), 0) + 0); i <= n - 1; i += 1) {
            c[(i) + (n)*((j))] = (c[(i) + (n)*((j))] + (a[(i) + (n)*((k))] * p_b[(k - kk) + (4)*((j - jj))]));
          }
        }
      }
    }
  }
}
|golden}

let golden_f90 =
  {golden|subroutine matmul(n, a, b, c)
  use eco_helpers
  implicit none
  integer, intent(in) :: n
  real(8), intent(inout) :: a(0:n - 1, 0:n - 1)
  real(8), intent(inout) :: b(0:n - 1, 0:n - 1)
  real(8), intent(inout) :: c(0:n - 1, 0:n - 1)
  integer :: jj, kk, p_b_c1, p_b_c0, k, j, i
  real(8), save :: p_b(0:3, 0:3)
  do jj = 0, n - 1, 4
    do kk = 0, n - 1, 4
      do p_b_c1 = 0, min(3, -jj + n - 1)
        do p_b_c0 = 0, min(3, -kk + n - 1)
          p_b(p_b_c0, p_b_c1) = b(kk + p_b_c0, jj + p_b_c1)
        end do
      end do
      do k = kk, min(kk + 3, n - 1)
        do j = jj, min(jj + 3, n - 1)
          do i = 0, ((max(eco_floormult(n, 2), 0) + 0) + -1), 2
            c(i, j) = (c(i, j) + (a(i, k) * p_b(k - kk, j - jj)))
            c(i + 1, j) = (c(i + 1, j) + (a(i + 1, k) * p_b(k - kk, j - jj)))
          end do
          do i = (max(eco_floormult(n, 2), 0) + 0), n - 1
            c(i, j) = (c(i, j) + (a(i, k) * p_b(k - kk, j - jj)))
          end do
        end do
      end do
    end do
  end do
end subroutine matmul
|golden}

let test_golden_c () =
  Alcotest.(check string) "C function text" golden_c
    (Codegen_c.function_code golden_program)

let test_golden_f90 () =
  Alcotest.(check string) "F90 subroutine text" golden_f90
    (Codegen_f90.subroutine_code golden_program)

let suite =
  [
    Alcotest.test_case "prototype" `Quick test_prototype;
    Alcotest.test_case "loop structure" `Quick test_contains_loops;
    Alcotest.test_case "tiled code uses ECO_MIN" `Quick test_tiled_code_uses_min;
    Alcotest.test_case "unrolled code uses ECO_FLOORMULT" `Quick
      test_unrolled_code_uses_floormult;
    Alcotest.test_case "copy temp becomes static local" `Quick
      test_temp_becomes_local;
    Alcotest.test_case "registers become locals" `Quick
      test_registers_become_locals;
    Alcotest.test_case "prefetch becomes builtin" `Quick
      test_prefetch_becomes_builtin;
    Alcotest.test_case "preamble" `Quick test_preamble_in_file;
    Alcotest.test_case "f90: subroutine" `Quick test_f90_subroutine;
    Alcotest.test_case "f90: tiled min" `Quick test_f90_tiled_min;
    Alcotest.test_case "f90: unroll helper" `Quick test_f90_unroll_helper;
    Alcotest.test_case "f90: registers and temps" `Quick
      test_f90_registers_and_temps;
    Alcotest.test_case "f90: prefetch comment" `Quick test_f90_prefetch_comment;
    Alcotest.test_case "golden: C tiled+unrolled+copied matmul" `Quick
      test_golden_c;
    Alcotest.test_case "golden: F90 tiled+unrolled+copied matmul" `Quick
      test_golden_f90;
    Alcotest.test_case "gcc: naive matmul" `Slow (with_gcc test_c_naive_matmul);
    Alcotest.test_case "gcc: figure 1(b) pipeline" `Slow (with_gcc test_c_figure_1b);
    Alcotest.test_case "gcc: ECO-tuned variant" `Slow (with_gcc test_c_tuned_variant);
    Alcotest.test_case "gcc: jacobi rotation" `Slow (with_gcc test_c_jacobi_rotation);
  ]
