(** Fission transformation (F-Trans, §4.2): split a sub-graph along a
    graph-level dimension into [n] sequentially executed parts.

    [validate] checks the paper's constraints (weak connectivity,
    convexity, unique dimension assignment, per-edge dimension links) plus
    the semantic side conditions (splittable axes, divisibility,
    consistent input slicing), reading the graph through a
    {!Graph_index} the caller builds.  [expand] performs the real graph
    rewrite, validating on an index of its own; the optimizer normally
    uses the virtual accounting in {!Ftree} and expands only final
    results. *)

open Magis_ir
module Int_map = Util.Int_map
module Int_set = Util.Int_set

type t = {
  members : Int_set.t;  (** the sub-graph S *)
  dims : int Int_map.t;
      (** node -> signed assigned dim (1-based; negative = reduce axis) *)
  n : int;  (** fission number; 1 = candidate not yet applied *)
}

val members : t -> Int_set.t
val fission_number : t -> int
val with_n : t -> int -> t

(** How each input of S participates in the split. *)
type input_role = Sliced of int  (** along this 1-based dim *) | Shared

(** Per-input roles; [Error] on inconsistent slicing requirements. *)
val input_roles : Graph_index.t -> t -> (input_role Int_map.t, string) result

(** [outputs ix ids]: for each member of the increasing array [ids],
    whether it is an output of S ([G.outs(S)]: read by no node, or by a
    node outside S).  Aligned with [ids]. *)
val outputs : Graph_index.t -> int array -> bool array

(** The checks of {!validate} that do not depend on [n], run once on an
    index of the graph: on success, the modulus — the gcd of the
    extents the split divides (members' assigned output dims, input
    members included, and the dims of sliced inputs; [0] when there are
    none).  The candidate is valid at [n >= 1] iff [n] divides it.
    Connectivity is a union-find over the members' operand edges,
    convexity one {!Reach.precedes} test per (output, input) pair on
    the index's closure, and the links are memoized in the index. *)
val structure : Graph_index.t -> t -> (int, string) result

(** {!structure} plus divisibility by [n]. *)
val validate : Graph_index.t -> t -> (unit, string) result

val is_valid : Graph_index.t -> t -> bool

type expansion = {
  graph : Graph.t;
  replacements : int Int_map.t;
      (** original output node -> merged replacement node *)
  part_nodes : int list array;  (** nodes of each sequential part *)
}

(** Really rewrite the graph into [n] parts (slices, per-part copies,
    concat/reduction merges).  Raises [Invalid_argument] if invalid. *)
val expand : Graph.t -> t -> expansion

(** [scaled_shapes ix f v (ins, out)]: member [v]'s per-part shapes,
    scaled from the given ones (assigned dims divided by [n] where they
    divide), so nested fissions compose by chaining calls.  [v]'s links
    come from the index [ix] (memoized there). *)
val scaled_shapes :
  Graph_index.t -> t -> int -> Shape.t array * Shape.t -> Shape.t array * Shape.t

val pp : Format.formatter -> t -> unit
