(** Wall-clock seconds (epoch-based): search-cost accounting reports
    elapsed time, as the paper's search times are. *)
val now : unit -> float
