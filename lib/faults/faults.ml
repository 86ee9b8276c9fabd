type t = {
  active : bool;
  seed : int;
  noise : float;
  transient : float;
  hang : float;
  outlier : float;
  outlier_factor : float;
}

let none =
  {
    active = false;
    seed = 0;
    noise = 0.0;
    transient = 0.0;
    hang = 0.0;
    outlier = 0.0;
    outlier_factor = 25.0;
  }

let check_rate name v =
  if not (v >= 0.0 && v <= 1.0) then
    invalid_arg (Printf.sprintf "Faults: %s must be in [0,1] (got %g)" name v)

let make ?(seed = 1) ?(noise = 0.0) ?(transient = 0.0) ?(hang = 0.0)
    ?(outlier = 0.0) ?(outlier_factor = 25.0) () =
  if not (noise >= 0.0) then
    invalid_arg (Printf.sprintf "Faults: noise must be >= 0 (got %g)" noise);
  check_rate "transient" transient;
  check_rate "hang" hang;
  check_rate "outlier" outlier;
  if not (outlier_factor >= 1.0) then
    invalid_arg
      (Printf.sprintf "Faults: outlier_factor must be >= 1 (got %g)"
         outlier_factor);
  { active = true; seed; noise; transient; hang; outlier; outlier_factor }

let of_spec s =
  let fields =
    List.filter (fun f -> f <> "") (String.split_on_char ',' (String.trim s))
  in
  if fields = [] then invalid_arg "Faults.of_spec: empty spec";
  if fields = [ "none" ] then none
  else
  List.fold_left
    (fun t field ->
      match String.index_opt field '=' with
      | None ->
        invalid_arg
          (Printf.sprintf "Faults.of_spec: expected key=value, got %S" field)
      | Some i ->
        let key = String.trim (String.sub field 0 i) in
        let value =
          String.trim (String.sub field (i + 1) (String.length field - i - 1))
        in
        let num () =
          match float_of_string_opt value with
          | Some v -> v
          | None ->
            invalid_arg
              (Printf.sprintf "Faults.of_spec: %s needs a number, got %S" key
                 value)
        in
        let t =
          match key with
          | "seed" -> (
            match int_of_string_opt value with
            | Some v -> { t with seed = v }
            | None ->
              invalid_arg
                (Printf.sprintf "Faults.of_spec: seed needs an integer, got %S"
                   value))
          | "noise" -> { t with noise = num () }
          | "transient" -> { t with transient = num () }
          | "hang" -> { t with hang = num () }
          | "outlier" -> { t with outlier = num () }
          | "outlier_factor" -> { t with outlier_factor = num () }
          | _ ->
            invalid_arg
              (Printf.sprintf
                 "Faults.of_spec: unknown key %S (known: seed, noise, \
                  transient, hang, outlier, outlier_factor)"
                 key)
        in
        (* revalidate through [make] so specs and code share the checks *)
        make ~seed:t.seed ~noise:t.noise ~transient:t.transient ~hang:t.hang
          ~outlier:t.outlier ~outlier_factor:t.outlier_factor ())
    none fields

let to_spec t =
  if not t.active then "none"
  else
    let f name v l = if v <> 0.0 then Printf.sprintf "%s=%g" name v :: l else l in
    String.concat ","
      (Printf.sprintf "seed=%d" t.seed
      :: f "noise" t.noise
           (f "transient" t.transient
              (f "hang" t.hang
                 (f "outlier" t.outlier
                    (if t.outlier <> 0.0 && t.outlier_factor <> 25.0 then
                       [ Printf.sprintf "outlier_factor=%g" t.outlier_factor ]
                     else [])))))

let noisy t = t.active && (t.noise > 0.0 || t.outlier > 0.0)

let pp fmt t =
  if not t.active then Format.pp_print_string fmt "no faults"
  else
    Format.fprintf fmt
      "faults(seed=%d, noise=%g, transient=%g, hang=%g, outlier=%g x%g)"
      t.seed t.noise t.transient t.hang t.outlier t.outlier_factor

(* --- keyed splitmix64 streams --------------------------------------- *)

(* Same generator as the differential-testing harness (Check.Rng):
   splitmix64, full-period and identical on every platform.  Duplicated
   here because [check] depends on [core] which depends on this library,
   so the dependency cannot point the other way. *)

type stream = { mutable state : int64 }

let next r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_parts parts =
  let r = { state = 0x5851F42D4C957F2DL } in
  List.iter
    (fun p ->
      r.state <- Int64.logxor r.state (Int64.of_int p);
      ignore (next r))
    parts;
  r

let hash_string s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  Int64.to_int (Int64.shift_right_logical !h 2)

(* uniform in [0,1): the top 53 bits of one output *)
let uniform r =
  Int64.to_float (Int64.shift_right_logical (next r) 11) *. 0x1p-53

(* standard normal (Box–Muller) *)
let gauss r =
  let u1 = Float.max (uniform r) 0x1p-60 in
  let u2 = uniform r in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

type fate = Sample of float | Transient_failure | Hang

let draw t ~key ~trial ~attempt =
  if not t.active then Sample 1.0
  else begin
    let r = of_parts [ t.seed; hash_string key; 0; trial; attempt ] in
    let u = uniform r in
    if u < t.transient then Transient_failure
    else if u < t.transient +. t.hang then Hang
    else if t.outlier > 0.0 && uniform r < t.outlier then
      Sample t.outlier_factor
    else if t.noise > 0.0 then Sample (exp (t.noise *. gauss r))
    else Sample 1.0
  end

(* --- service-level fault plans --------------------------------------- *)

module Service = struct
  type t = {
    active : bool;
    seed : int;
    hang : float;
    hang_s : float;
    disconnect : float;
    kill_after : int option;
  }

  let none =
    {
      active = false;
      seed = 0;
      hang = 0.0;
      hang_s = 0.05;
      disconnect = 0.0;
      kill_after = None;
    }

  let make ?(seed = 1) ?(hang = 0.0) ?(hang_s = 0.05) ?(disconnect = 0.0)
      ?kill_after () =
    check_rate "hang" hang;
    check_rate "disconnect" disconnect;
    if not (hang_s >= 0.0) then
      invalid_arg
        (Printf.sprintf "Faults.Service: hang_s must be >= 0 (got %g)" hang_s);
    (match kill_after with
    | Some k when k < 1 ->
      invalid_arg
        (Printf.sprintf "Faults.Service: kill_after must be >= 1 (got %d)" k)
    | _ -> ());
    { active = true; seed; hang; hang_s; disconnect; kill_after }

  let of_spec s =
    let fields =
      List.filter (fun f -> f <> "") (String.split_on_char ',' (String.trim s))
    in
    if fields = [] then invalid_arg "Faults.Service.of_spec: empty spec";
    if fields = [ "none" ] then none
    else
      List.fold_left
        (fun t field ->
          match String.index_opt field '=' with
          | None ->
            invalid_arg
              (Printf.sprintf "Faults.Service.of_spec: expected key=value, got %S"
                 field)
          | Some i ->
            let key = String.trim (String.sub field 0 i) in
            let value =
              String.trim (String.sub field (i + 1) (String.length field - i - 1))
            in
            let num () =
              match float_of_string_opt value with
              | Some v -> v
              | None ->
                invalid_arg
                  (Printf.sprintf "Faults.Service.of_spec: %s needs a number, got %S"
                     key value)
            in
            let int_ () =
              match int_of_string_opt value with
              | Some v -> v
              | None ->
                invalid_arg
                  (Printf.sprintf
                     "Faults.Service.of_spec: %s needs an integer, got %S" key
                     value)
            in
            let t =
              match key with
              | "seed" -> { t with seed = int_ () }
              | "hang" -> { t with hang = num () }
              | "hang_s" -> { t with hang_s = num () }
              | "disconnect" -> { t with disconnect = num () }
              | "kill_after" -> { t with kill_after = Some (int_ ()) }
              | _ ->
                invalid_arg
                  (Printf.sprintf
                     "Faults.Service.of_spec: unknown key %S (known: seed, \
                      hang, hang_s, disconnect, kill_after)"
                     key)
            in
            make ~seed:t.seed ~hang:t.hang ~hang_s:t.hang_s
              ~disconnect:t.disconnect ?kill_after:t.kill_after ())
        none fields

  let to_spec t =
    if not t.active then "none"
    else
      let f name v l =
        if v <> 0.0 then Printf.sprintf "%s=%g" name v :: l else l
      in
      String.concat ","
        (Printf.sprintf "seed=%d" t.seed
        :: f "hang" t.hang
             ((if t.hang <> 0.0 && t.hang_s <> 0.05 then
                 [ Printf.sprintf "hang_s=%g" t.hang_s ]
               else [])
             @ f "disconnect" t.disconnect
                 (match t.kill_after with
                 | Some k -> [ Printf.sprintf "kill_after=%d" k ]
                 | None -> [])))

  (* Drawn from the same keyed splitmix64 streams as the measurement
     plan, with distinct stream tags (2 = batch hang, 3 = client
     disconnect), so service faults are a pure function of (session,
     event index) — bit-identical under any scheduling. *)
  let hangs t ~session ~batch =
    t.active && t.hang > 0.0
    && uniform (of_parts [ t.seed; hash_string session; 2; batch; 0 ]) < t.hang

  let disconnects t ~session ~event =
    t.active && t.disconnect > 0.0
    && uniform (of_parts [ t.seed; hash_string session; 3; event; 0 ])
       < t.disconnect
end

(* --- aggregation ----------------------------------------------------- *)

let sorted a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Faults.median: empty sample";
  let b = sorted a in
  if n land 1 = 1 then b.(n / 2) else 0.5 *. (b.((n / 2) - 1) +. b.(n / 2))

let aggregate a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Faults.aggregate: empty sample";
  if n < 5 then median a
  else begin
    let b = sorted a in
    let k = max 1 (n / 5) in
    let sum = ref 0.0 in
    for i = k to n - 1 - k do
      sum := !sum +. b.(i)
    done;
    !sum /. float_of_int (n - (2 * k))
  end

let rel_spread a =
  let n = Array.length a in
  if n < 2 then 0.0
  else
    let b = sorted a in
    let m = median a in
    if m = 0.0 then 0.0 else (b.(n - 1) -. b.(0)) /. Float.abs m
