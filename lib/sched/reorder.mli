(** Memory-aware re-ordering: the paper's [DpSchedule] primitive (a
    Serenity-style uniform-cost search over executed-set states, optimal
    in peak memory) and a near-linear memory-greedy list scheduler, its
    fallback past the DP's state budget and the search's scheduler for
    every candidate.  Both run on one member table ({!Members}) cut into
    blocks ({!Partition.blocks}), reading only each block's edges. *)

open Magis_ir
module Int_set = Util.Int_set

(** O((V+E) log V) list scheduling by (net memory delta, size, id), on
    arrays indexed by the members and a binary heap: the members as one
    block of a table read from a fresh index of the graph. *)
val greedy_schedule : size_of:(int -> int) -> Graph.t -> Int_set.t -> int list

(** Peak-memory-optimal order, or [None] once more than [max_states]
    states are popped: the members as one block of a table read from a
    fresh index of the graph, executed sets as bitsets over them. *)
val dp_schedule :
  max_states:int -> size_of:(int -> int) -> Graph.t -> Int_set.t ->
  int list option

(** Narrow-waist partition along the index's {!Graph_index.order},
    then per-block DP with greedy fallback ([max_states = 0] skips the
    DP), both on the one member table, concatenated: a schedule of the
    members, increasing node ids of the indexed graph. *)
val schedule_members :
  max_states:int -> size_of:(int -> int) -> Graph_index.t -> int array ->
  int list

(** Schedule the whole graph, on a fresh index of it; [size_of]
    defaults to {!Magis_cost.Lifetime.node_size} of the index's node
    records. *)
val schedule : max_states:int -> ?size_of:(int -> int) -> Graph.t -> int list

(** {!schedule} on an index of the graph the caller already holds. *)
val schedule_on :
  max_states:int -> ?size_of:(int -> int) -> Graph_index.t -> int list
