(* Tier-1 tests for the differential-correctness harness: a fixed-seed
   budget over every kernel, determinism across worker counts, the
   sampler's edge cases, oracle sensitivity, shrinker minimality, and
   pinned regressions for the nastiest shrunk-but-passing edge cases. *)

module Kernel = Kernels.Kernel
module Rng = Check.Rng
module Oracle = Check.Oracle
module Pipe = Check.Pipe
module Constr = Core.Constr
module Param = Core.Param
module Poly = Analysis.Poly

let machine = Machine.sgi_r10000
let matmul = Kernels.Matmul.kernel

let all_kernels =
  [
    Kernels.Matmul.kernel;
    Kernels.Jacobi3d.kernel;
    Kernels.Matvec.kernel;
    Kernels.Stencil2d.kernel;
    Kernels.Wavefront.kernel;
  ]

(* --- PRNG --- *)

let test_rng_deterministic () =
  let stream parts =
    let rng = Rng.of_list parts in
    List.init 8 (fun _ -> Rng.int rng 1000)
  in
  Alcotest.(check (list int))
    "same parts, same stream"
    (stream [ 42; 7; 3 ])
    (stream [ 42; 7; 3 ]);
  if stream [ 42; 7; 3 ] = stream [ 42; 7; 4 ] then
    Alcotest.fail "distinct trial indices must give distinct streams"

(* --- fixed-seed budget --- *)

let test_budget_all_kernels () =
  let report = Check.run ~machine ~seed:42 ~trials:10 all_kernels in
  Alcotest.(check bool) "no failures" true (Check.ok report);
  List.iter
    (fun (k : Check.kernel_report) ->
      Alcotest.(check int) (k.kernel ^ " trials") 10 k.trials;
      Alcotest.(check int)
        (k.kernel ^ " checked+skipped")
        10
        (k.checked + k.skipped);
      if k.checked = 0 then Alcotest.failf "%s: nothing was checked" k.kernel)
    report.Check.kernels

let test_deterministic_across_jobs () =
  let run jobs =
    Check.report_to_string
      (Check.run ~machine ~jobs ~seed:9 ~trials:6
         [ matmul; Kernels.Jacobi3d.kernel ])
  in
  Alcotest.(check string) "jobs=1 vs jobs=3" (run 1) (run 3);
  Alcotest.(check string) "jobs=1 vs jobs=0" (run 1) (run 0)

(* --- sampler edges --- *)

let rand_of seed =
  let rng = Rng.make seed in
  fun b -> Rng.int rng b

let test_sample_empty_system () =
  match
    Constr.sample ~rand:(rand_of 5) ~n:16 [ Param.tile "i"; Param.unroll "j" ] []
  with
  | None -> Alcotest.fail "empty system must be satisfiable"
  | Some bindings ->
    let ti = List.assoc "ti" bindings and uj = List.assoc "uj" bindings in
    if ti < 1 || ti > 16 then Alcotest.failf "ti=%d out of range" ti;
    if uj < 1 || uj > 64 then Alcotest.failf "uj=%d out of range" uj

let test_sample_contradictory () =
  let contradiction =
    Constr.Poly_le { poly = Poly.var "ti"; bound = 0; what = "impossible" }
  in
  match
    Constr.sample ~rand:(rand_of 5) ~n:16 [ Param.tile "i" ] [ contradiction ]
  with
  | None -> ()
  | Some _ -> Alcotest.fail "ti >= 1 cannot satisfy ti <= 0"

let test_sample_equality_tight () =
  (* UI * UJ <= 32: the boundary point UI=32, UJ=1 is feasible, UI=32,
     UJ=2 is not, and every sampled point must satisfy the product. *)
  let c =
    Constr.Poly_le
      {
        poly = Poly.mul (Poly.var "ui") (Poly.var "uj");
        bound = 32;
        what = "register tile";
      }
  in
  let lookup b p = try List.assoc p b with Not_found -> 16 in
  Alcotest.(check bool)
    "tight point feasible" true
    (Constr.satisfied c (lookup [ ("ui", 32); ("uj", 1) ]));
  Alcotest.(check bool)
    "over the edge infeasible" false
    (Constr.satisfied c (lookup [ ("ui", 32); ("uj", 2) ]));
  let rand = rand_of 11 in
  for _ = 1 to 50 do
    match
      Constr.sample ~rand ~n:16 [ Param.unroll "i"; Param.unroll "j" ] [ c ]
    with
    | None -> Alcotest.fail "UI*UJ <= 32 is satisfiable"
    | Some b ->
      let ui = List.assoc "ui" b and uj = List.assoc "uj" b in
      if ui * uj > 32 then Alcotest.failf "sampled infeasible ui=%d uj=%d" ui uj
  done

(* --- oracle --- *)

let test_values_match () =
  let bump f k =
    (* k ULPs above f *)
    Int64.float_of_bits (Int64.add (Int64.bits_of_float f) (Int64.of_int k))
  in
  Alcotest.(check bool)
    "within tolerance" true
    (Oracle.values_match ~max_ulps:1024 1.0 (bump 1.0 100));
  Alcotest.(check bool)
    "beyond tolerance" false
    (Oracle.values_match ~max_ulps:1024 1.0 (bump 1.0 5000));
  Alcotest.(check bool)
    "gross difference" false
    (Oracle.values_match ~max_ulps:1024 1.0 2.0);
  Alcotest.(check bool)
    "cancellation residue vs zero" true
    (Oracle.values_match ~max_ulps:1024 0.0 1e-13);
  Alcotest.(check bool)
    "NaN vs number" false
    (Oracle.values_match ~max_ulps:1024 Float.nan 1.0)

let test_compare_arrays_shape () =
  let reference = [ ("c", [| 1.0; 2.0 |]) ] in
  (match Oracle.compare_arrays ~max_ulps:1024 ~reference ~candidate:[] with
  | Oracle.Shape_error _ -> ()
  | v -> Alcotest.failf "missing array: expected shape error, got %s" (Oracle.describe v));
  (match
     Oracle.compare_arrays ~max_ulps:1024 ~reference
       ~candidate:[ ("c", [| 1.0 |]) ]
   with
  | Oracle.Shape_error _ -> ()
  | v -> Alcotest.failf "short array: expected shape error, got %s" (Oracle.describe v));
  match
    Oracle.compare_arrays ~max_ulps:1024 ~reference
      ~candidate:[ ("c", [| 1.0; 2.0 |]); ("p_b", [| 9.0 |]) ]
  with
  | Oracle.Agree -> ()
  | v -> Alcotest.failf "extra temp must be ignored, got %s" (Oracle.describe v)

let test_oracle_catches_dropped_computation () =
  (* A candidate that performs no work leaves every array at its initial
     values; the oracle must flag the divergence. *)
  let empty =
    Ir.Program.with_body matmul.Kernel.program []
  in
  match Oracle.check_program matmul ~n:6 empty with
  | Oracle.Differ m ->
    Alcotest.(check string) "diverging array" "c" m.Oracle.array
  | v -> Alcotest.failf "expected Differ, got %s" (Oracle.describe v)

(* --- shrinking --- *)

let test_shrink_point_minimal () =
  (* Failure region: u >= 3 and n >= 5; the shrinker must land exactly
     on its lower-left corner with the irrelevant binding at 1. *)
  let fails b n = List.assoc "u" b >= 3 && n >= 5 in
  let bindings, n =
    Check.Shrink.point ~fails ~min_n:2
      ~bindings:[ ("u", 10); ("t", 9) ]
      ~n:13
  in
  Alcotest.(check int) "u minimized" 3 (List.assoc "u" bindings);
  Alcotest.(check int) "t cleared" 1 (List.assoc "t" bindings);
  Alcotest.(check int) "n minimized" 5 n

let test_shrink_pipeline_minimal () =
  (* Only the presence of an Unroll step matters; every other step must
     be dropped and the factor driven to 1. *)
  let fails p n =
    n >= 4 && List.exists (function Pipe.Unroll _ -> true | _ -> false) p
  in
  let pipe =
    [
      Pipe.Tile [ ("i", 5) ];
      Pipe.Copy "b";
      Pipe.Unroll ("j", 4);
      Pipe.Scalar_replace;
    ]
  in
  let pipe, n = Check.Shrink.pipeline ~fails ~min_n:2 ~pipe ~n:13 in
  Alcotest.(check string)
    "pipe minimized" "unroll:j=1"
    (Pipe.to_string pipe);
  Alcotest.(check int) "n minimized" 4 n

(* --- pinned edge-case regressions ---

   The three nastiest cases the harness exercises, pinned at fixed
   parameters so a future transformation change that breaks one fails
   here with an immediate repro. *)

let check_agrees name kernel spec n =
  match Check.check_pipe kernel ~pipe:(Pipe.of_string spec) ~n with
  | Oracle.Agree -> ()
  | v ->
    Alcotest.failf "%s: pipeline '%s' at n=%d: %s" name spec n
      (Oracle.describe v)

let test_pin_non_dividing_tile () =
  (* 5 and 7 do not divide 13: every tile footer is a partial tile. *)
  check_agrees "non-dividing tile" matmul "tile:i=5,j=7" 13

let test_pin_unroll_beyond_trip_count () =
  (* Factor exceeds the trip count: the unrolled loop body is dead and
     the epilogue performs the entire computation. *)
  check_agrees "unroll > trip" matmul "unroll:j=7" 4

let test_pin_clipped_copy_at_boundary () =
  (* The final 5-wide copy tile hangs over the 13-element array edge and
     must be clipped, not read out of bounds. *)
  check_agrees "clipped copy" matmul "tile:i=5,j=5,k=5;copy:b" 13

(* --- plumbing round-trips --- *)

let test_pipe_roundtrip () =
  let s = "permute:i,k,j;tile:j=5,k=7;copy:b;unroll:i=4;scalar;prefetch:a=2" in
  Alcotest.(check string) "string round-trip" s (Pipe.to_string (Pipe.of_string s));
  let p = Pipe.of_string s in
  if Pipe.of_string (Pipe.to_string p) <> p then
    Alcotest.fail "pipe round-trip"

let test_parse_bindings () =
  Alcotest.(check (list (pair string int)))
    "parse" [ ("ui", 4); ("tj", 8) ]
    (Check.parse_bindings "ui=4,tj=8");
  Alcotest.(check string)
    "round-trip" "ui=4,tj=8"
    (Check.bindings_to_string (Check.parse_bindings "ui=4, tj=8"));
  match Check.parse_bindings "ui=x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of non-integer"

let test_validate_winner () =
  (* tune --validate's core: the all-ones point of any derived variant
     agrees with the reference at the capped sizes. *)
  let variant = List.hd (Core.Derive.variants machine matmul) in
  let bindings =
    List.map (fun (p : Param.t) -> (p.Param.name, 1)) (Core.Variant.params variant)
  in
  let results =
    Check.validate ~machine variant ~bindings ~prefetch:[] ~n:100
  in
  if results = [] then Alcotest.fail "validate must check at least one size";
  List.iter
    (fun (size, verdict) ->
      if size > 31 then Alcotest.failf "size %d above the cap" size;
      if not (Oracle.agrees verdict) then
        Alcotest.failf "n=%d: %s" size (Oracle.describe verdict))
    results

let suite =
  [
    Alcotest.test_case "rng: deterministic streams" `Quick test_rng_deterministic;
    Alcotest.test_case "budget: seed 42 over all kernels" `Quick
      test_budget_all_kernels;
    Alcotest.test_case "budget: identical report at any jobs" `Quick
      test_deterministic_across_jobs;
    Alcotest.test_case "sample: empty system" `Quick test_sample_empty_system;
    Alcotest.test_case "sample: contradictory bounds" `Quick
      test_sample_contradictory;
    Alcotest.test_case "sample: equality-tight product" `Quick
      test_sample_equality_tight;
    Alcotest.test_case "oracle: ULP tolerance" `Quick test_values_match;
    Alcotest.test_case "oracle: shape errors" `Quick test_compare_arrays_shape;
    Alcotest.test_case "oracle: dropped computation" `Quick
      test_oracle_catches_dropped_computation;
    Alcotest.test_case "shrink: point to minimal corner" `Quick
      test_shrink_point_minimal;
    Alcotest.test_case "shrink: pipeline to single step" `Quick
      test_shrink_pipeline_minimal;
    Alcotest.test_case "pin: non-dividing tile" `Quick test_pin_non_dividing_tile;
    Alcotest.test_case "pin: unroll beyond trip count" `Quick
      test_pin_unroll_beyond_trip_count;
    Alcotest.test_case "pin: clipped copy at array boundary" `Quick
      test_pin_clipped_copy_at_boundary;
    Alcotest.test_case "pipe: spec round-trip" `Quick test_pipe_roundtrip;
    Alcotest.test_case "bindings: parse/print" `Quick test_parse_bindings;
    Alcotest.test_case "validate: winning point agrees" `Quick
      test_validate_winner;
  ]
