(** Id-indexed arrays over one graph: its nodes, their distinct operands
    and consumers in increasing id order, and their dimension links
    ({!Op.links}).  A pass that reads many nodes of one graph (the F-Tree
    construction of Algorithm 1, a whole-graph dominator tree, the
    simulation of one candidate schedule) builds one index and reads
    every fact from it instead of from the persistent maps of {!Graph}.

    {!of_graph} fills only the node array, in one pass over the graph's
    node map; the consumers by operand slot (one flat array in
    compressed rows, which also gives {!n_reads}), the topological
    order walked over them, the adjacency arrays, each node's links and
    the {!Reach} closure are built on first use and kept.  Those lazy
    parts and the scratch array {!with_locals} marks members in are the
    index's own, and nothing locks them: an index is read by one
    computation at a time, which may be many in turn (a search pop's
    F-Tree mutations are all rescheduled on the pop's one index).

    Every query takes a node id below {!bound}; ids that are not nodes
    of the graph are outside their domain, except for {!mem}. *)

type t

val of_graph : Graph.t -> t

(** Consumers by operand slot, in compressed rows: [ids.(k)] for [k]
    from [row.(v)] below [row.(v + 1)] are the nodes reading [v], in
    increasing id order, a node once per slot that reads [v] (so a
    node reading [v] twice sits twice, side by side). *)
type csr = private { row : int array; ids : int array }

(** The indexed graph. *)
val graph : t -> Graph.t

(** [Graph.id_bound] of the indexed graph. *)
val bound : t -> int

(** {!Graph.topo_order}, computed on first use by the same
    smallest-ready-id walk over the index's arrays; not a copy, do not
    mutate. *)
val order : t -> int array

(** The node array, by id; an id that is not a node holds a record
    whose [id] is [-1].  Not a copy, do not mutate. *)
val nodes : t -> Graph.node array

val mem : t -> int -> bool
val node : t -> int -> Graph.node
val shape : t -> int -> Shape.t
val size_bytes : t -> int -> int

(** Distinct operands, increasing; not a copy, do not mutate. *)
val preds : t -> int -> int array

(** Consumers, increasing; not a copy, do not mutate. *)
val succs : t -> int -> int array

(** The consumers by slot, built on first use and kept; not a copy, do
    not mutate. *)
val csr : t -> csr

(** Operand slots, over every node, that read the id's output (a node
    reading it twice counts twice): the length of the id's row of
    consumers by slot. *)
val n_reads : t -> int -> int

(** Does some node read the id's output?  [n_reads t v > 0]. *)
val has_consumers : t -> int -> bool

(** Operand shapes, by slot; a fresh array. *)
val in_shapes : t -> int -> Shape.t array

(** [Op.links] of the node, computed on first use and kept. *)
val links : t -> int -> (int * int * Op.dim_link) list

(** The graph's {!Reach} closures over {!order}, built on first use
    and kept.  Two domains must not force it at once. *)
val reach : t -> Reach.t

(** Does the list hold every node exactly once, each after its operands? *)
val is_valid_order : t -> int list -> bool

(** {1 Member-local indices} *)

(** [lower_bound a x]: the first position of the increasing array [a]
    whose value is at least [x] ([Array.length a] when there is none). *)
val lower_bound : int array -> int -> int

(** [local_of ids v]: the position of [v] in the increasing array
    [ids], or [-1]. *)
val local_of : int array -> int -> int

(** [with_locals t ids f]: [f slot], where [slot.(ids.(k)) = k] for
    the members [ids] (distinct nodes) and [slot.(v) = -1] for every
    other id below {!bound}.  [slot] is the index's own scratch, lent
    for the call: [f] must not write it or keep it, and the index must
    not be lent again inside [f].  Every entry is [-1] again when
    [with_locals] returns or raises. *)
val with_locals : t -> int array -> (int array -> 'a) -> 'a

(** {1 Induced sub-graphs} *)

(** The sub-graph induced by a set of members, on member-local indices:
    local index [k] stands for [ids.(k)], and [preds]/[succs] keep only
    edges between members, as local indices in increasing order. *)
type induced = {
  ids : int array;  (** members, increasing *)
  local_preds : int array array;
  local_succs : int array array;
}

(** [induced t ids] for members [ids], given in increasing order. *)
val induced : t -> int array -> induced
