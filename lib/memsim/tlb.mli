(** Translation lookaside buffer: fully associative with FIFO
    replacement and a one-entry MRU fast path: {!Hierarchy.Tlb},
    documented there.  The model is defined inside [Hierarchy] so that
    its probe inlines into the replay loops (dev builds compile every
    library [-opaque], which stops inlining across modules); this module
    re-exports it. *)

include module type of struct
  include Hierarchy.Tlb
end
