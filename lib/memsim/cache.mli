(** One level of set-associative cache with true-LRU replacement,
    write-back/write-allocate, and per-line fill times used to model
    in-flight software prefetches: {!Hierarchy.Cache}, documented there.
    The model is defined inside [Hierarchy] so that its probe inlines
    into the replay loops (dev builds compile every library [-opaque],
    which stops inlining across modules); this module re-exports it. *)

include module type of struct
  include Hierarchy.Cache
end
