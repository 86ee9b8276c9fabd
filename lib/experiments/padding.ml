type result = {
  machine : Machine.t;
  series : Series.t list;
}

let run ?mode ?sizes ?tune_n machine =
  let mode = match mode with Some m -> m | None -> Config.budget () in
  let sizes = match sizes with Some s -> s | None -> Config.jacobi_sizes () in
  let tune_n =
    match tune_n with Some n -> n | None -> Config.jacobi_tune_size ()
  in
  let kernel = Kernels.Jacobi3d.kernel in
  let engine = Core.Engine.create machine in
  let eco = Core.Eco.optimize_with ~mode engine kernel ~n:tune_n in
  let program = eco.Core.Eco.program in
  let padded =
    Transform.Pad.apply_all program ~amount:(Transform.Pad.default_amount machine)
  in
  let sweep p =
    List.map
      (fun n ->
        ( n,
          (Core.Engine.measure_program engine kernel ~n ~mode p)
            .Core.Executor.mflops ))
      sizes
  in
  {
    machine;
    series =
      [
        Series.make "ECO" 'E' (sweep program);
        Series.make "ECO+pad" 'P' (sweep padded);
      ];
  }

let render r =
  (Printf.sprintf "Jacobi with and without array padding on %s"
     r.machine.Machine.name
   :: Series.chart r.series)
  @ ("" :: Series.table r.series)
  @ ("" :: Series.summary r.series)
