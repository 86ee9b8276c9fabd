(* Wall-clock time: the paper's "machine time to evaluate candidates" is
   elapsed time, so search-cost accounting uses it rather than CPU
   time. *)
let now () = Unix.gettimeofday ()
