(** Fission transformation (F-Trans, §4.2): split a sub-graph along a
    graph-level dimension into [n] sequentially executed parts.

    [validate] checks the paper's constraints (weak connectivity,
    convexity, unique dimension assignment, per-edge dimension links) plus
    the semantic side conditions (splittable axes, divisibility,
    consistent input slicing).  [expand] performs the real graph rewrite;
    the optimizer normally uses the virtual accounting in {!Ftree} and
    expands only final results. *)

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

(** Extent of the assigned dimension (positive assignments only). *)
val assigned_extent : Graph.t -> int -> int -> int option

(** How each input of S participates in the split. *)
type input_role = Sliced of int  (** along this 1-based dim *) | Shared

(** Per-input roles; [Error] on inconsistent slicing requirements. *)
val input_roles : Graph.t -> t -> (input_role Int_map.t, string) result

(** The checks of {!validate} that do not depend on [n], run once: on
    success, the modulus — the gcd of the extents the split divides
    (members' assigned output dims, input members included, and the
    dims of sliced inputs; [0] when there are none).  The candidate is
    valid at [n >= 1] iff [n] divides it.  [index] must index [g]; it
    memoizes the links and tests convexity on its {!Graph_index.reach}
    closure. *)
val structure : ?index:Graph_index.t -> Graph.t -> t -> (int, string) result

(** {!structure} plus divisibility by [n]. *)
val validate : Graph.t -> t -> (unit, string) result

val is_valid : Graph.t -> t -> bool

type expansion = {
  graph : Graph.t;
  replacements : int Int_map.t;
      (** original output node -> merged replacement node *)
  part_nodes : int list array;  (** nodes of each sequential part *)
}

(** Really rewrite the graph into [n] parts (slices, per-part copies,
    concat/reduction merges).  Raises [Invalid_argument] if invalid. *)
val expand : Graph.t -> t -> expansion

(** [scaled_shapes g f v (ins, out)]: member [v]'s per-part shapes,
    scaled from the given ones (assigned dims divided by [n] where they
    divide), so nested fissions compose by chaining calls.  [index], an
    index of [g], supplies [v]'s links (memoized there). *)
val scaled_shapes :
  ?index:Graph_index.t ->
  Graph.t -> t -> int -> Shape.t array * Shape.t -> Shape.t array * Shape.t

val pp : Format.formatter -> t -> unit
