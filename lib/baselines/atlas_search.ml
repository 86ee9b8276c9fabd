type config = { nb : int; mu : int; nu : int; copy : bool }

let copy_threshold = 2

let base_variant ~copy =
  let n = Ir.Aff.var "n" in
  let copies =
    if copy then
      [
        {
          Core.Variant.array = "b";
          temp = "p_b";
          at = "j";
          dims =
            [
              { Core.Variant.tiled_loop = "k"; bound = n };
              { Core.Variant.tiled_loop = "j"; bound = n };
            ];
        };
        {
          Core.Variant.array = "a";
          temp = "p_a";
          at = "i";
          dims =
            [
              { Core.Variant.tiled_loop = "i"; bound = n };
              { Core.Variant.tiled_loop = "k"; bound = n };
            ];
        };
      ]
    else []
  in
  {
    Core.Variant.name = (if copy then "atlas_copy" else "atlas_nocopy");
    kernel = Kernels.Matmul.kernel;
    element_order = [ "j"; "i"; "k" ];
    tiles = [ ("k", "tk"); ("j", "tj"); ("i", "ti") ];
    unrolls = [ ("j", "uj"); ("i", "ui") ];
    copies;
    constraints = [];
    notes = [];
  }

let bindings_of c =
  [ ("tk", c.nb); ("tj", c.nb); ("ti", c.nb); ("ui", c.mu); ("uj", c.nu) ]

let program _kernel c =
  Core.Variant.instantiate (base_variant ~copy:c.copy) ~bindings:(bindings_of c)

let grid (machine : Machine.t) =
  let l1_elems = Machine.cache_capacity_elems machine 0 in
  let nb_max = min 80 (int_of_float (sqrt (float_of_int l1_elems))) in
  let rec nbs nb = if nb > nb_max then [] else nb :: nbs (nb + 4) in
  let regs = Machine.available_registers machine in
  let units = [ 1; 2; 3; 4; 6; 8 ] in
  List.concat_map
    (fun nb ->
      List.concat_map
        (fun mu ->
          List.filter_map
            (fun nu ->
              (* ATLAS's register-kernel feasibility rule:
                 mu*nu + mu + nu + latency slots must fit the file. *)
              if (mu * nu) + mu + nu + 2 <= regs && mu <= nb && nu <= nb then
                Some { nb; mu; nu; copy = false }
              else None)
            units)
        units)
    (nbs 16)

let decide_copy c ~n = { c with copy = n >= copy_threshold * c.nb }

(* An ATLAS point is a hand-shaped variant instantiation, so it measures
   through the engine like every other candidate; [check:false] because
   ATLAS applies no models — every grid point is executed. *)
let request c ~n ~mode =
  let c = decide_copy { c with nb = min c.nb n } ~n in
  Core.Engine.request ~check:false (base_variant ~copy:c.copy) ~n ~mode
    ~bindings:(bindings_of c)

let measure_at engine c ~n ~mode =
  match Core.Engine.evaluate engine (request c ~n ~mode) with
  | Some (ev : Core.Engine.evaluation) -> ev.Core.Engine.measurement
  | None -> failwith "Atlas_search.measure_at: infeasible configuration"

type result = {
  config : config;
  measurement : Core.Executor.measurement;
  points : int;
  seconds : float;
}

let tune engine ~n ~mode =
  let t0 = Core.Unix_time.now () in
  let candidates = grid (Core.Engine.machine engine) in
  (* The whole grid is independent: one engine batch. *)
  let evaluations =
    Core.Engine.evaluate_batch engine
      (List.map (fun c -> request c ~n ~mode) candidates)
  in
  let best =
    List.fold_left2
      (fun acc c ev ->
        match ev with
        | None -> acc
        | Some (ev : Core.Engine.evaluation) -> (
          let m = ev.Core.Engine.measurement in
          match acc with
          | Some (_, best_m)
            when Core.Executor.cycles best_m <= Core.Executor.cycles m ->
            acc
          | _ -> Some (c, m)))
      None candidates evaluations
  in
  match best with
  | None -> failwith "Atlas_search.tune: empty grid"
  | Some (config, measurement) ->
    {
      config = decide_copy config ~n;
      measurement;
      points = List.length candidates;
      seconds = Core.Unix_time.now () -. t0;
    }
