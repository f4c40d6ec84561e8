(** Dominator trees over computation graphs (Cooper–Harvey–Kennedy).

    Per §2.1 of the paper, the tree is rooted at the *primary* input
    tensor(s) by default — placeholders, excluding weights and labels
    (the gradient seed is a label-kind input) — which is what lets a
    layer's input dominate both its forward remainder and the
    corresponding backward operators.

    The tree is held on arrays indexed by member-local index (the rank
    of a node among the members, see {!Graph_index.induced}), with Euler
    intervals: a node's strict subtree is one slice of the preorder, so
    strict-subtree membership and dominance are O(1) on local indices.
    The queries on node ids find the local index by binary search. *)

module Int_map = Util.Int_map
module Int_set = Util.Int_set

type t

(** Immediate dominator of the roots. *)
val virtual_root : int

(** [compute ?members ?entries g] builds the tree of [g], or of the
    sub-graph induced by [members]; [entries] overrides the root set.
    Nodes unreachable from the entries are absent from the tree. *)
val compute : ?members:Int_set.t -> ?entries:int list -> Graph.t -> t

(** [of_induced ?entries idx sub]: {!compute} on a sub-graph induced
    from an index ([sub.ids] are the members). *)
val of_induced : ?entries:int list -> Graph_index.t -> Graph_index.induced -> t

(** Immediate dominator; [Some virtual_root] for roots, [None] for nodes
    absent from the tree. *)
val idom : t -> int -> int option

(** All nodes strictly dominated by [v] (the paper's [T.des(v)]). *)
val strict_subtree : t -> int -> Int_set.t

(** [strict_subtree] plus the node itself. *)
val subtree : t -> int -> Int_set.t

(** Reflexive dominance test. *)
val dominates : t -> int -> int -> bool

(** Nodes in the reverse postorder used to build the tree. *)
val rpo : t -> int array

(** {1 Euler intervals on local indices} *)

(** Local indices of the tree's nodes in a depth-first preorder; not a
    copy, do not mutate. *)
val preorder : t -> int array

(** [tin t k]: position of local index [k] in {!preorder}, or [-1] when
    the node is absent from the tree. *)
val tin : t -> int -> int

(** [tout t k]: one past the last position of [k]'s subtree, so its
    strict subtree is [preorder.(tin k + 1 .. tout k - 1)]. *)
val tout : t -> int -> int
