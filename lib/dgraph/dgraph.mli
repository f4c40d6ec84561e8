(** Dimension graphs (D-Graphs, §4.1): one node [⟨v,i⟩] per output
    dimension ([i = 1…s_v]) and reduce axis ([i = -1…-r_v]) of every
    operator, with edges between dimensions that share a spatial axis.
    Connected components identify the graph-level dimensions (batch,
    heads, sequence, …) a fission can split along. *)

open Magis_ir
module Int_map = Util.Int_map

type dnode = { node : int; dim : int }
(** [dim > 0]: output dimension (1-based); [dim < 0]: reduce axis. *)

val compare_dnode : dnode -> dnode -> int

type t

(** A connected component: its graph nodes, each with the one dimension
    it has in the component or a mark that it has several. *)
type component

val pp_dnode : Format.formatter -> dnode -> unit

(** All D-nodes of one graph node. *)
val dnodes_of : Graph.t -> int -> dnode list

val build : Graph.t -> t

(** {!build} over an index of the graph. *)
val of_index : Graph_index.t -> t

(** Connected components spanning at least two graph nodes, in order of
    their smallest D-node ({!compare_dnode}). *)
val components : t -> component list

(** Is the D-node in the component? *)
val mem : component -> dnode -> bool

(** Graph nodes touched by the component, increasing; not a copy, do not
    mutate. *)
val nodes : component -> int array

(** Restrict a component to a node subset: the per-node dimension
    assignment of a fission candidate; [None] when some node has more
    than one D-node in it (constraint (3) of §4.2).  Nodes of the subset
    outside the component are left out of the assignment. *)
val restrict : component -> Util.Int_set.t -> int Int_map.t option
