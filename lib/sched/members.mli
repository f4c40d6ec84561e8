(** A node subset of a graph, indexed by rank among its members: the
    scheduler's scratch is sized by the subset, never by
    {!Magis_ir.Graph.id_bound}.  Member [i] is the [i]-th smallest id,
    so local-index order is id order. *)

open Magis_ir
module Int_set = Util.Int_set

type t

(** Index the members and the edges between them.  Raises
    [Invalid_argument] (through {!Graph.node}) on an id that is not a
    node of the graph. *)
val of_set : Graph.t -> Int_set.t -> t

(** [sub t block]: the subset of [t] at the ascending local indices
    [block], without touching the graph again.  A consumer outside
    [block] counts as outside the subset. *)
val sub : t -> int array -> t

(** The node ids at local indices [locals]. *)
val to_set : t -> int array -> Int_set.t

(** Number of members. *)
val size : t -> int

(** Node id of member [i]. *)
val id : t -> int -> int

(** Local index of node id [v], or [-1] when [v] is not a member
    (binary search). *)
val index : t -> int -> int

(** Distinct member operands of member [i]. *)
val n_preds : t -> int -> int

val iter_preds : (int -> unit) -> t -> int -> unit

(** Member consumers of member [i]. *)
val n_succs : t -> int -> int

val iter_succs : (int -> unit) -> t -> int -> unit

(** Is member [i] {!Magis_cost.Lifetime.pinned}? *)
val pinned : t -> int -> bool

(** Can member [i]'s tensor die inside the subset: every consumer is a
    member and it is not pinned? *)
val closed : t -> int -> bool
