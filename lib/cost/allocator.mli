(** Static memory planning: tensor lifetimes → concrete arena offsets (the
    job of TVM's memory planner).  Quantifies the fragmentation gap
    between the live-byte peak and the arena a runtime really needs. *)

open Magis_ir

type strategy =
  | Best_fit  (** smallest free gap that fits (default) *)
  | First_fit  (** lowest free offset that fits *)
  | Bump  (** never reuse *)

type placement = {
  node : int;
  offset : int;
  bytes : int;
  birth : int;
  free : int;
}

type t = {
  arena_size : int;  (** high-water mark of the arena *)
  peak_live : int;  (** lower bound: peak of live bytes *)
  placements : placement list;
}

(** Planned arena relative to the live peak (1.0 = no waste). *)
val fragmentation : t -> float

val plan : ?strategy:strategy -> Lifetime.t -> t

(** All conflicting placement pairs (overlapping lifetimes {e and}
    address ranges), found by an offset-ordered sweep.  Empty for a
    correct plan; the interference checker reports each pair. *)
val overlaps : t -> (placement * placement) list

(** The placement of a node's output buffer, if it was planned (zero-byte
    tensors are not). *)
val placement_of : t -> int -> placement option

(** No two live-overlapping tensors share addresses (test hook). *)
val is_valid : t -> bool

val plan_schedule : ?strategy:strategy -> Graph.t -> int list -> t
