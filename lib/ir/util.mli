(** Small shared utilities for the IR layer: integer maps/sets, a
    union-find over [0 .. n-1], an int min-heap, and a deterministic
    64-bit mixing hash used by {!Wl_hash}. *)

module Int_map : Map.S with type key = int
module Int_set : Set.S with type elt = int

(** Disjoint sets over [0 .. n-1] with path halving; each class is
    represented by its smallest element. *)
module Union_find : sig
  type t

  val create : int -> t
  val find : t -> int -> int

  (** Merge the classes of two elements. *)
  val union : t -> int -> int -> unit
end

(** A binary min-heap of at most [n] ints ([create n]): the ready set of
    the smallest-ready-id Kahn walks ({!Graph.topo_order},
    [Graph_index.order]). *)
module Int_heap : sig
  type t

  val create : int -> t
  val is_empty : t -> bool
  val push : t -> int -> unit

  (** Remove and return the smallest element; the heap must not be
      empty. *)
  val pop : t -> int
end

(** SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer with a
    stable definition across OCaml versions (unlike [Hashtbl.hash]). *)
val mix64 : int64 -> int64

val hash_combine : int64 -> int64 -> int64
val hash_string : string -> int64
val hash_int_list : int list -> int64

(** [hash_int_array a = hash_int_list (Array.to_list a)]. *)
val hash_int_array : int array -> int64

(** [take n xs] is the first [n] elements of [xs] (all of them if
    shorter). *)
val take : int -> 'a list -> 'a list

(** [drop n xs] is [xs] without its first [n] elements. *)
val drop : int -> 'a list -> 'a list

val sum_by : ('a -> int) -> 'a list -> int
val sum_by_f : ('a -> float) -> 'a list -> float
