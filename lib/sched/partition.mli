(** Narrow-waist analysis and graph partitioning (§6.1). *)

open Magis_ir
module Int_set = Util.Int_set

(** Narrow-waist value [nw(v) = |V| - |anc(v)| - |des(v)| - 1] of every
    node [v] of [g], indexed by node id, from the {!Reach} closures.  The
    array argument is a topological order of [g] (a valid schedule); any
    other array is replaced by {!Graph.topo_order}.  The same number as
    the scheduling freedom [Magis_analysis.Liveness.mobility]: [latest -
    earliest = (n - 1 - |des v|) - |anc v|]. *)
val nw_table : Graph.t -> int array -> int array

(** {!partition} on a member index: each block is the ascending local
    indices of its members.  [topo] is the graph's {!Graph.topo_order}
    (the cuts depend on that order; no other may be passed). *)
val blocks : ?max_crossing:int -> topo:int array -> Members.t -> int array list

(** Cut each weakly-connected component where the dependence frontier
    narrows to at most [max_crossing] live tensors (linear-time
    equivalent of cutting at nw <= 1); pinned tensors
    ({!Magis_cost.Lifetime.pinned}) never count as crossing.  Blocks are
    returned in a dependency-compatible order.  Scratch is sized by the
    members ({!Members}), not by {!Graph.id_bound}. *)
val partition : ?max_crossing:int -> Graph.t -> Int_set.t -> Int_set.t list
