(** Memory-aware re-ordering: the paper's [DpSchedule] primitive (a
    Serenity-style uniform-cost search over executed-set states, optimal
    in peak memory) plus a near-linear memory-greedy list scheduler used
    as the fallback and for cheap candidate evaluation. *)

open Magis_ir
module Int_set = Util.Int_set

(** Bytes freed by executing [v] given the executed set. *)
val freed_by :
  size_of:(int -> int) -> Graph.t -> Int_set.t -> Int_set.t -> int -> int

val initial_ready : Graph.t -> Int_set.t -> Int_set.t

val next_ready :
  Graph.t -> Int_set.t -> Int_set.t -> Int_set.t -> int -> Int_set.t

(** O((V+E) log V) list scheduling by (net memory delta, size, id), on
    arrays indexed by the members and a binary heap: the members as one
    block of a table read from a fresh index of the graph. *)
val greedy_schedule : size_of:(int -> int) -> Graph.t -> Int_set.t -> int list

(** Peak-memory-optimal order, or [None] past the state budget. *)
val dp_schedule :
  ?max_states:int -> size_of:(int -> int) -> Graph.t -> Int_set.t ->
  int list option

(** Narrow-waist partition along the index's {!Graph_index.order},
    then per-block DP with greedy fallback ([max_states = 0] skips the
    DP), concatenated: a schedule of the members, increasing node ids
    of the indexed graph. *)
val schedule_members :
  ?max_states:int -> size_of:(int -> int) -> Graph_index.t -> int array ->
  int list

(** Schedule the whole graph, on a fresh index of it. *)
val schedule : ?max_states:int -> ?size_of:(int -> int) -> Graph.t -> int list
