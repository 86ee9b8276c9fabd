type entry = {
  what : string;
  machine : string;
  points : int;
  seconds : float;
  best_mflops : float;
}

let eco_entry engine kernel ~n ~mode what =
  let t0 = Core.Unix_time.now () in
  let r = Core.Eco.optimize_with ~mode engine kernel ~n in
  {
    what;
    machine = (Core.Engine.machine engine).Machine.name;
    points = Core.Search_log.points r.Core.Eco.log;
    seconds = Core.Unix_time.now () -. t0;
    best_mflops = r.Core.Eco.measurement.Core.Executor.mflops;
  }

let atlas_entry engine ~n ~mode =
  let r = Baselines.Atlas_search.tune engine ~n ~mode in
  {
    what = "ATLAS-style MM";
    machine = (Core.Engine.machine engine).Machine.name;
    points = r.Baselines.Atlas_search.points;
    seconds = r.Baselines.Atlas_search.seconds;
    best_mflops = r.Baselines.Atlas_search.measurement.Core.Executor.mflops;
  }

let run ?mode () =
  let mode = match mode with Some m -> m | None -> Config.budget () in
  let mm_n = Config.mm_tune_size () and j_n = Config.jacobi_tune_size () in
  List.concat_map
    (fun machine ->
      (* One engine per machine: the three searches share its memo
         table. *)
      let engine = Core.Engine.create machine in
      [
        eco_entry engine Kernels.Matmul.kernel ~n:mm_n ~mode "ECO MM";
        atlas_entry engine ~n:mm_n ~mode;
        eco_entry engine Kernels.Jacobi3d.kernel ~n:j_n ~mode "ECO Jacobi";
      ])
    [ Machine.sgi_r10000; Machine.ultrasparc_iie ]

let render entries =
  Printf.sprintf "%-16s %-20s %8s %10s %10s" "Search" "Machine" "Points"
    "Wall sec" "Best MF"
  :: List.map
       (fun e ->
         Printf.sprintf "%-16s %-20s %8d %10.2f %10.1f" e.what e.machine
           e.points e.seconds e.best_mflops)
       entries
