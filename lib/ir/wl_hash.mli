(** Weisfeiler–Lehman-style graph hashing (Algorithm 3, lines 3–6):
    structural hashes invariant under node renumbering, used by the
    optimizer to filter duplicate search states. *)

module Int_map = Util.Int_map

(** Per-node WL labels (operator fingerprint ⊕ shape ⊕ ordered operand
    labels), in topological order. *)
val node_labels : Graph.t -> int64 Int_map.t

(** Structural hash of the whole graph.  [order], when given, is a
    topological order of the graph (any one gives the same hash); by
    default {!Graph.topo_order}. *)
val hash : ?order:int list -> Graph.t -> int64

val equal_structure : Graph.t -> Graph.t -> bool
