let names =
  [ "table1"; "table2"; "table4"; "fig4a"; "fig4b"; "fig5a"; "fig5b";
    "search_cost"; "ablation"; "padding"; "strategies"; "conflicts"; "noise";
    "rankcheck"; "transfer" ]

let banner print title =
  print "";
  print (String.make 72 '=');
  print title;
  print (String.make 72 '=')

let run ~print name =
  match name with
  | "table1" ->
    banner print "Table 1: performance variation with optimization parameters (SGI)";
    List.iter print (Table1.render (Table1.rows ()))
  | "table2" ->
    banner print "Table 2: simulated architectures";
    List.iter print (Table2.render ())
  | "table4" ->
    banner print "Table 4: derived Matrix Multiply variants (SGI)";
    List.iter print (Table4.render ())
  | "fig4a" ->
    banner print "Figure 4(a): Matrix Multiply on SGI R10000";
    List.iter print (Fig4.render (Fig4.run Machine.sgi_r10000))
  | "fig4b" ->
    banner print "Figure 4(b): Matrix Multiply on Sun UltraSparc IIe";
    List.iter print (Fig4.render (Fig4.run Machine.ultrasparc_iie))
  | "fig5a" ->
    banner print "Figure 5(a): Jacobi on SGI R10000";
    List.iter print (Fig5.render (Fig5.run Machine.sgi_r10000))
  | "fig5b" ->
    banner print "Figure 5(b): Jacobi on Sun UltraSparc IIe";
    List.iter print (Fig5.render (Fig5.run Machine.ultrasparc_iie))
  | "search_cost" ->
    banner print "Section 4.3: cost of search";
    List.iter print (Search_cost.render (Search_cost.run ()))
  | "ablation" ->
    banner print "Ablation: models vs search vs hybrid; copy and prefetch (SGI MM)";
    List.iter print (Ablation.render (Ablation.run ()))
  | "padding" ->
    banner print "Extension (paper 4.2): array padding stabilizes Jacobi (SGI)";
    List.iter print (Padding.render (Padding.run Machine.sgi_r10000))
  | "strategies" ->
    banner print "Extension: search strategies at equal budget (SGI MM)";
    List.iter print (Strategies.render (Strategies.run ()))
  | "conflicts" ->
    banner print "Extension: conflict-miss classification of Native vs ECO (SGI MM)";
    List.iter print (Conflicts.render (Conflicts.run ()))
  | "noise" ->
    banner print "Extension: noise sensitivity of the guided search (SGI)";
    List.iter print (Noise.render (Noise.run ()))
  | "rankcheck" ->
    banner print
      "Extension: analytical-model rank agreement and pre-filter cost";
    List.iter print (Rankcheck.render (Rankcheck.run ()))
  | "transfer" ->
    banner print
      "Extension: transfer warm-starts from the performance database";
    List.iter print (Transfer.render (Transfer.run ()));
    banner print
      "Extension: cross-machine transfer (donor hierarchy ≠ target)";
    List.iter print (Transfer.render (Transfer.run_cross ()))
  | other ->
    invalid_arg
      (Printf.sprintf "unknown experiment %s (known: %s)" other
         (String.concat ", " names))

let run_everything ~print () = List.iter (run ~print) names
