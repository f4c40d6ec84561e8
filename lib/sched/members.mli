(** The member table of a node subset of one indexed graph, indexed by
    rank among its members: the scheduler's scratch is sized by the
    subset, never by {!Magis_ir.Graph_index.bound}.  Member [i] is the
    [i]-th smallest id, so local-index order is id order.  The table is
    read from the index's node array, consumers by operand slot and
    topological order alone; partitioning ({!Partition.blocks}) and the
    greedy scheduler read every block from this one table. *)

open Magis_ir

(** Edges between members are stored once each way, in compressed rows
    of local indices, each row increasing.  Read-only. *)
type t = private {
  ids : int array;  (** member -> node id, increasing *)
  topo : int array;
      (** every member, in the order of {!Graph_index.order} *)
  pred_start : int array;
  preds : int array;
      (** member operands of [i]: [preds.(k)] for [k] from
          [pred_start.(i)] below [pred_start.(i + 1)], each once *)
  succ_start : int array;
  succs : int array;
      (** member consumers of [i], the same way, each once however
          many of its slots read [i] *)
  pinned : bool array;  (** {!Magis_cost.Lifetime.pinned_by} *)
  escapes : bool array;  (** has a consumer that is not a member *)
}

(** [of_index ix ids]: the table of the members [ids], increasing node
    ids of the indexed graph, else [Invalid_argument]. *)
val of_index : Graph_index.t -> int array -> t

(** Number of members. *)
val size : t -> int
