(** Narrow-waist analysis and graph partitioning (§6.1). *)

open Magis_ir
module Int_set = Util.Int_set

(** Weights and graph outputs: never freed, ignored when cutting. *)
val pinned : Graph.t -> int -> bool

(** Narrow-waist value [nw(v) = |V| - |anc(v)| - |des(v)| - 1] of every
    node [v] of [g], indexed by node id, from one bitset reachability
    pass per direction.  The array argument is a
    topological order of [g] (a valid schedule); any other array is
    replaced by {!Graph.topo_order}. *)
val nw_table : Graph.t -> int array -> int array

(** Cut each weakly-connected component where the dependence frontier
    narrows to at most [max_crossing] live tensors (linear-time
    equivalent of cutting at nw <= 1); blocks are returned in a
    dependency-compatible order. *)
val partition : ?max_crossing:int -> Graph.t -> Int_set.t -> Int_set.t list
