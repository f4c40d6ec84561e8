(** Narrow-waist analysis and graph partitioning (§6.1). *)

open Magis_ir
module Int_set = Util.Int_set

(** Narrow-waist value [nw(v) = |V| - |anc(v)| - |des(v)| - 1] of every
    node [v] of the indexed graph, indexed by node id, read off the
    index's own closure ({!Graph_index.reach}).  The same number as the
    scheduling freedom [Magis_analysis.Liveness.mobility]: [latest -
    earliest = (n - 1 - |des v|) - |anc v|]. *)
val nw_on : Graph_index.t -> int array

(** The cut of a member table: member [i] lies in block [block_of.(i)];
    block [b]'s members are [members.(k)] for [k] from [start.(b)]
    below [start.(b + 1)], in increasing order; blocks are numbered in
    a dependency-compatible order.  Read-only. *)
type blocks = private {
  block_of : int array;
  start : int array;
  members : int array;
}

val n_blocks : blocks -> int

(** {!partition} on a member table, along its topological order
    ({!Members.t.topo}); scratch is sized by the members. *)
val blocks : ?max_crossing:int -> Members.t -> blocks

(** Cut each weakly-connected component where the dependence frontier
    narrows to at most [max_crossing] live tensors (linear-time
    equivalent of cutting at nw <= 1); pinned tensors
    ({!Magis_cost.Lifetime.pinned}) never count as crossing.  Blocks are
    returned in a dependency-compatible order.  Builds one index of the
    graph and cuts its member table ({!blocks}). *)
val partition : ?max_crossing:int -> Graph.t -> Int_set.t -> Int_set.t list
