type entry = {
  variant : string;
  bindings : (string * int) list;
  prefetch : (string * int) list;
  cycles : float;
  mflops : float;
}

type t = {
  mutable entries : entry list;
  mutable hits : int;
  mutable pruned : int;
  mutable failed : int;
  mutable prefiltered : int;
  mutable db_hits : int;
  mutable repriced : int;
  mutable confirmed : int;
  started : float;
}

let create () =
  {
    entries = [];
    hits = 0;
    pruned = 0;
    failed = 0;
    prefiltered = 0;
    db_hits = 0;
    repriced = 0;
    confirmed = 0;
    started = Unix_time.now ();
  }

let record t e = t.entries <- e :: t.entries
let note_hit t = t.hits <- t.hits + 1
let note_pruned t = t.pruned <- t.pruned + 1
let note_failed t = t.failed <- t.failed + 1
let note_prefiltered t = t.prefiltered <- t.prefiltered + 1
let note_db_hit t = t.db_hits <- t.db_hits + 1
let note_repriced t = t.repriced <- t.repriced + 1
let note_confirmed t = t.confirmed <- t.confirmed + 1
let entries t = List.rev t.entries
let points t = List.length t.entries
let fresh = points
let hits t = t.hits
let pruned t = t.pruned
let failed t = t.failed
let prefiltered t = t.prefiltered
let db_hits t = t.db_hits
let repriced t = t.repriced
let confirmed t = t.confirmed
let seconds t = Unix_time.now () -. t.started

let best t =
  match t.entries with
  | [] -> None
  | e :: rest ->
    Some (List.fold_left (fun acc e -> if e.cycles < acc.cycles then e else acc) e rest)
