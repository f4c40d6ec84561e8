(** Weisfeiler–Lehman-style graph hashing (Algorithm 3, lines 3–6):
    structural hashes invariant under node renumbering, used by the
    optimizer to filter duplicate search states. *)

module Int_map = Util.Int_map

(** Per-node WL labels (operator fingerprint ⊕ shape ⊕ ordered operand
    labels), in topological order. *)
val node_labels : Graph.t -> int64 Int_map.t

(** Structural hash of the indexed graph, labelled in the index's
    {!Graph_index.order}; forces that order. *)
val hash_on : Graph_index.t -> int64

(** [hash g] is {!hash_on} a fresh index of [g]. *)
val hash : Graph.t -> int64

val equal_structure : Graph.t -> Graph.t -> bool
