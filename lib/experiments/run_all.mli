(** Orchestration: run a named experiment (or all of them) and print its
    rendered output through the supplied line printer. *)

val names : string list

(** [run ~print name] runs one experiment; raises [Invalid_argument] on
    unknown names. *)
val run : print:(string -> unit) -> string -> unit

val run_everything : print:(string -> unit) -> unit -> unit
