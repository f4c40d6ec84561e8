(** Computation graphs: persistent DAGs of operator nodes.

    Mutation functions return new graphs sharing structure with the old
    one, so the optimizer can hold thousands of candidate graphs cheaply.
    The set-level queries mirror Table 1 of the paper. *)

module Int_map = Util.Int_map
module Int_set = Util.Int_set

type node = {
  id : int;
  op : Op.kind;
  shape : Shape.t;
  label : string;  (** human-readable name, for debugging/printing *)
  inputs : int array;  (** operand slots, in order *)
}

type t

val empty : t
val n_nodes : t -> int
val mem : t -> int -> bool

(** Raises [Invalid_argument] on an unknown id. *)
val node : t -> int -> node

val node_opt : t -> int -> node option
val shape : t -> int -> Shape.t
val op : t -> int -> Op.kind
val size_bytes : t -> int -> int

val nodes : t -> node list
val node_ids : t -> int list
val fold : (node -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (node -> unit) -> t -> unit

(** Consumers of a node, as a set / sorted list. *)
val succ_set : t -> int -> Int_set.t

val suc : t -> int -> int list

(** Distinct operands of a node. *)
val pre : t -> int -> int list

val in_degree : t -> int -> int
val out_degree : t -> int -> int

(** {1 Construction} *)

(** [add_input g kind shape] adds a graph input (placeholder / weight /
    label); returns the extended graph and the new id. *)
val add_input : ?label:string -> t -> Op.input_kind -> Shape.t -> t * int

(** [add g op inputs] adds an operator node, inferring its output shape.
    Raises [Invalid_argument] on malformed use. *)
val add : ?label:string -> t -> Op.kind -> int list -> t * int

(** [add_copy ?label g v inputs] adds a node with [v]'s operator and
    output shape over [inputs], each of which must have the shape of
    [v]'s operand in its slot (raises [Invalid_argument] otherwise): the
    node {!add} would add, without inferring its shape again. *)
val add_copy : ?label:string -> t -> int -> int list -> t * int

(** Remove a node with no consumers (raises otherwise). *)
val remove : t -> int -> t

(** [redirect g ~from_ ~to_] rewires every consumer of [from_] to
    [to_]; shapes must agree. *)
val redirect : t -> from_:int -> to_:int -> t

(** Replace occurrences of [old_src] among [node_id]'s operands. *)
val replace_input : t -> node_id:int -> old_src:int -> new_src:int -> t

(** [prune_dead ~keep g] removes consumer-less operator nodes except
    graph inputs and the protected [keep] set (pass the intended graph
    outputs or they would be swept away). *)
val prune_dead : keep:Int_set.t -> t -> t

(** [prune_from ~keep g roots] removes, from [roots] upward, the
    consumer-less operator nodes outside [keep] (a removed node's
    operands are examined next): {!prune_dead} when only [roots] can
    have lost their last consumer, without a pass over the graph. *)
val prune_from : keep:Int_set.t -> t -> int list -> t

(** {1 Queries (Table 1)} *)

(** Nodes with no operands. *)
val inputs : t -> int list

(** Nodes with no consumers. *)
val outputs : t -> int list

(** Strict ancestors / descendants of a node. *)
val anc : t -> int -> Int_set.t

val des : t -> int -> Int_set.t
val des_of_set : t -> Int_set.t -> Int_set.t

(** [G.inps(S)]: nodes outside [S] consumed by members of [S]. *)
val inps_of : t -> Int_set.t -> Int_set.t

(** [G.outs(S)]: members of [S] consumed outside (or graph outputs). *)
val outs_of : t -> Int_set.t -> Int_set.t

val is_weakly_connected : t -> Int_set.t -> bool

(** Convexity: no path leaves [S] and re-enters it. *)
val is_convex : t -> Int_set.t -> bool

(** Weakly-connected components of the induced sub-graph. *)
val components_of : t -> Int_set.t -> Int_set.t list

(** {1 Topological order} *)

(** Every node id is below [id_bound g], so arrays of this length can be
    indexed by node id. *)
val id_bound : t -> int

(** Deterministic Kahn order (smallest ready id first); raises on a
    cyclic graph.  Builders number nodes as a define-by-run program
    creates them, so this replays construction order wherever the
    dependencies allow it: it is the unoptimized baseline's execution
    order. *)
val topo_order : t -> int list

(** {1 Printing and statistics} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Total bytes of weight tensors (always-resident memory). *)
val weight_bytes : t -> int
