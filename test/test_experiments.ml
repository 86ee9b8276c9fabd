(* Tests for the experiment harness: the paper's qualitative claims must
   hold in the reproduction (shape, not absolute numbers). *)

let fast = Core.Executor.Budget 60_000

(* Table 1 rows are computed once (they are the slowest fixture). *)
let t1 = lazy (Experiments.Table1.rows ~mode:(Core.Executor.Budget 400_000) ())

let row name = List.find (fun r -> r.Experiments.Table1.name = name) (Lazy.force t1)

let test_table1_row_count () =
  Alcotest.(check int) "11 rows" 11 (List.length (Lazy.force t1));
  Alcotest.(check int) "5 mm" 5
    (List.length (Experiments.Table1.mm_rows (Lazy.force t1)));
  Alcotest.(check int) "6 jacobi" 6
    (List.length (Experiments.Table1.jacobi_rows (Lazy.force t1)))

let test_table1_mm5_fewest_cycles () =
  (* The paper's headline: the balanced, prefetched version wins even
     though it has the most loads. *)
  let mm5 = row "mm5" in
  List.iter
    (fun r ->
      if r.Experiments.Table1.name <> "mm5" then begin
        Alcotest.(check bool)
          ("mm5 cycles < " ^ r.Experiments.Table1.name)
          true
          (mm5.Experiments.Table1.cycles < r.Experiments.Table1.cycles);
        Alcotest.(check bool)
          ("mm5 loads > " ^ r.Experiments.Table1.name)
          true
          (mm5.Experiments.Table1.loads > r.Experiments.Table1.loads)
      end)
    (Experiments.Table1.mm_rows (Lazy.force t1))

let test_table1_mm3_l2 () =
  (* Tiling all three loops slashes L2 misses (paper: mm3 vs mm1). *)
  let mm1 = row "mm1" and mm3 = row "mm3" in
  Alcotest.(check bool) "mm3 L2 misses much lower" true
    (mm3.Experiments.Table1.l2_misses < mm1.Experiments.Table1.l2_misses /. 2.0)

let test_table1_tlb_story () =
  (* Untiled-I versions cycle too many columns through the TLB. *)
  let mm2 = row "mm2" and mm4 = row "mm4" in
  Alcotest.(check bool) "mm2 TLB thrash vs mm4" true
    (mm2.Experiments.Table1.tlb_misses > 4.0 *. mm4.Experiments.Table1.tlb_misses)

let test_table1_prefetch_pairs () =
  (* Each prefetched Jacobi version: more loads, fewer cycles. *)
  List.iter
    (fun (without, with_) ->
      let a = row without and b = row with_ in
      Alcotest.(check bool) (with_ ^ " more loads") true
        (b.Experiments.Table1.loads > a.Experiments.Table1.loads);
      Alcotest.(check bool) (with_ ^ " fewer cycles") true
        (b.Experiments.Table1.cycles < a.Experiments.Table1.cycles))
    [ ("j1", "j2"); ("j3", "j4"); ("j5", "j6"); ("mm4", "mm5") ]

let test_table1_jacobi_tiling_helps_l2 () =
  let j1 = row "j1" and j5 = row "j5" in
  Alcotest.(check bool) "j5 fewer L2 misses than j1" true
    (j5.Experiments.Table1.l2_misses < j1.Experiments.Table1.l2_misses)

let test_table1_render () =
  let lines = Experiments.Table1.render (Lazy.force t1) in
  Alcotest.(check int) "header + 11 rows" 12 (List.length lines)

let test_table2_render () =
  let lines = Experiments.Table2.render () in
  Alcotest.(check int) "header + 2 machines" 3 (List.length lines);
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions R10000" true
    (List.exists (contains "R10000") lines)

let test_table4_headline_first () =
  let vs = Experiments.Table4.variants () in
  Alcotest.(check bool) "non-empty" true (vs <> []);
  let first = List.hd vs in
  Alcotest.(check bool) "headline copies b" true
    (List.exists
       (fun (c : Core.Variant.copy_spec) -> c.Core.Variant.array = "b")
       first.Core.Variant.copies)

let test_series_stats () =
  let s = Experiments.Series.make "x" 'x' [ (1, 10.0); (2, 20.0); (3, 30.0) ] in
  Alcotest.(check (float 1e-9)) "mean" 20.0 (Experiments.Series.mean s);
  Alcotest.(check (float 1e-9)) "min" 10.0 (Experiments.Series.minimum s);
  Alcotest.(check (float 1e-9)) "max" 30.0 (Experiments.Series.maximum s)

let test_series_render () =
  let s1 = Experiments.Series.make "a" 'a' [ (1, 1.0); (2, 2.0) ] in
  let s2 = Experiments.Series.make "b" 'b' [ (1, 2.0); (2, 1.0) ] in
  Alcotest.(check int) "table rows" 3 (List.length (Experiments.Series.table [ s1; s2 ]));
  Alcotest.(check bool) "chart non-empty" true
    (List.length (Experiments.Series.chart ~height:8 [ s1; s2 ]) > 8);
  Alcotest.(check int) "summaries" 2
    (List.length (Experiments.Series.summary [ s1; s2 ]))

let test_fig4_smoke () =
  let r =
    Experiments.Fig4.run ~mode:fast ~sizes:[ 32; 48 ] ~tune_n:48
      Machine.generic_small
  in
  Alcotest.(check int) "four series" 4 (List.length r.Experiments.Fig4.series);
  List.iter
    (fun s ->
      Alcotest.(check int) "two points" 2
        (List.length s.Experiments.Series.points);
      Alcotest.(check bool)
        (s.Experiments.Series.label ^ " positive")
        true
        (Experiments.Series.minimum s > 0.0))
    r.Experiments.Fig4.series;
  Alcotest.(check bool) "render works" true
    (List.length (Experiments.Fig4.render r) > 10)

let test_fig5_smoke () =
  let r =
    Experiments.Fig5.run ~mode:fast ~sizes:[ 24; 32 ] ~tune_n:32
      Machine.generic_small
  in
  Alcotest.(check int) "two series" 2 (List.length r.Experiments.Fig5.series);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Experiments.Series.label ^ " positive")
        true
        (Experiments.Series.minimum s > 0.0))
    r.Experiments.Fig5.series

let test_run_all_names () =
  Alcotest.(check int) "fifteen experiments" 15
    (List.length Experiments.Run_all.names);
  match Experiments.Run_all.run ~print:ignore "nonsense" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unknown name accepted"

let test_run_one_table2 () =
  let lines = ref [] in
  Experiments.Run_all.run ~print:(fun l -> lines := l :: !lines) "table2";
  Alcotest.(check bool) "printed something" true (List.length !lines > 3)

(* A transfer warm start pays for itself: against a store populated at
   a neighbouring size, the warm search runs at least 30% fewer fresh
   simulations than the cold one and loses at most 2% of its MFLOPS.
   The bound is one-sided — a warm winner that beats the cold one (the
   transferred frontier lands in a basin the cold search misses) is a
   win, not a failure. *)
let test_transfer_warm_start_saves () =
  List.iter
    (fun ((kernel : Kernels.Kernel.t), n_from, n_to) ->
      let r =
        Experiments.Transfer.run_one ~mode:(Core.Executor.Budget 200_000)
          Machine.sgi_r10000 kernel ~n_from ~n_to
      in
      let ctx =
        Printf.sprintf "%s %d->%d: %d -> %d sims, %+.2f%% degradation"
          kernel.Kernels.Kernel.name n_from n_to r.Experiments.Transfer.sims_cold
          r.Experiments.Transfer.sims_warm
          r.Experiments.Transfer.degradation_pct
      in
      Alcotest.(check bool) (ctx ^ ": saves >= 30%") true
        (r.Experiments.Transfer.saved_pct >= 30.0);
      Alcotest.(check bool) (ctx ^ ": degrades <= 2%") true
        (r.Experiments.Transfer.degradation_pct <= 2.0))
    [ (Kernels.Matmul.kernel, 128, 160); (Kernels.Jacobi3d.kernel, 64, 72) ]

let suite =
  [
    Alcotest.test_case "table1: row count" `Quick test_table1_row_count;
    Alcotest.test_case "table1: mm5 wins with most loads" `Quick
      test_table1_mm5_fewest_cycles;
    Alcotest.test_case "table1: mm3 slashes L2" `Quick test_table1_mm3_l2;
    Alcotest.test_case "table1: TLB thrash story" `Quick test_table1_tlb_story;
    Alcotest.test_case "table1: prefetch pairs" `Quick test_table1_prefetch_pairs;
    Alcotest.test_case "table1: jacobi tiling helps L2" `Quick
      test_table1_jacobi_tiling_helps_l2;
    Alcotest.test_case "table1: render" `Quick test_table1_render;
    Alcotest.test_case "table2: render" `Quick test_table2_render;
    Alcotest.test_case "table4: headline first" `Quick test_table4_headline_first;
    Alcotest.test_case "series: stats" `Quick test_series_stats;
    Alcotest.test_case "series: render" `Quick test_series_render;
    Alcotest.test_case "fig4: smoke" `Slow test_fig4_smoke;
    Alcotest.test_case "fig5: smoke" `Slow test_fig5_smoke;
    Alcotest.test_case "run_all: names" `Quick test_run_all_names;
    Alcotest.test_case "run_all: table2" `Quick test_run_one_table2;
    Alcotest.test_case "transfer: warm start saves simulations" `Quick
      test_transfer_warm_start_saves;
  ]
