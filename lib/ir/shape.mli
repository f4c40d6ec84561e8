(** Tensor shapes and element types.

    A shape is a non-empty vector of positive dimension extents plus a
    data type; all memory accounting in the cost layer derives from
    {!size_bytes}. *)

type dtype = F32 | TF32 | BF16 | F16 | I64 | I32 | Bool

type t

val dtype_bytes : dtype -> int
val dtype_name : dtype -> string

(** [create ?dtype dims] builds a shape.  Raises [Invalid_argument] on an
    empty dimension list or non-positive extents. *)
val create : ?dtype:dtype -> int list -> t

(** [of_array ?dtype dims] is {!create} over an array it takes
    ownership of: [dims] is not copied, so the caller must not mutate it
    afterwards. *)
val of_array : ?dtype:dtype -> int array -> t

val rank : t -> int
val dim : t -> int -> int

(** A fresh copy of the extents. *)
val dims : t -> int array

(** The extents themselves, without a copy; read-only: the caller must
    not mutate the array. *)
val dims_view : t -> int array
val dtype : t -> dtype
val numel : t -> int
val size_bytes : t -> int

val equal : t -> t -> bool

(** Structural equality of dimensions, ignoring the dtype. *)
val equal_dims : t -> t -> bool

(** [with_dim t i d] replaces dimension [i] by extent [d]. *)
val with_dim : t -> int -> int -> t

(** [split_dim t i n] divides dimension [i] by [n]; raises unless [n]
    divides the extent.  Derives the per-part shape of a fission. *)
val split_dim : t -> int -> int -> t

(** [concat_dim t i extra] grows dimension [i] by [extra]. *)
val concat_dim : t -> int -> int -> t

(** Prime factorization of a positive extent, ascending, with
    multiplicity ([factorize 1 = []]; raises [Invalid_argument] on
    non-positive input).  Source of candidate fission numbers and of
    constant-divisibility facts in the symbolic shape domain. *)
val factorize : int -> int list

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val hash : t -> int64
