(** Weisfeiler–Lehman-style graph hashing (Algorithm 3, lines 3–6):
    structural hashes invariant under node renumbering, used by the
    optimizer to filter duplicate search states. *)

(** Per-node WL labels of one graph, by node id, and the graph's hash. *)
type labels

(** Labels of every node of the indexed graph, in the index's
    {!Graph_index.order}; forces that order. *)
val labels_on : Graph_index.t -> labels

(** [relabel_on ~parent_nodes ~parent ix]: {!labels_on} [ix], computed
    from the labels [parent] of a graph whose node array
    ({!Graph_index.nodes}) is [parent_nodes].  A node keeps its parent
    label when its record is physically [parent_nodes]'s at its id and
    every operand kept its label; every other node is labelled afresh.
    Sound when ids are never reused for another record, which holds for
    graphs derived from one another by {!Graph}'s operations. *)
val relabel_on :
  parent_nodes:Graph.node array -> parent:labels -> Graph_index.t -> labels

(** The graph's hash: the mixed wrap-around sum of its labels. *)
val hash_of : labels -> int64

(** The label of a node id. *)
val label : labels -> int -> int64

(** Structural hash of the indexed graph: [hash_of (labels_on ix)]. *)
val hash_on : Graph_index.t -> int64

(** [hash g] is {!hash_on} a fresh index of [g]. *)
val hash : Graph.t -> int64

val equal_structure : Graph.t -> Graph.t -> bool
