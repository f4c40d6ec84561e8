(** DNN operator set.

    Each operator kind carries output-shape inference ({!infer}), analytic
    work estimates ({!flops}, {!bytes_moved}) and *dimension semantics*
    ({!links}, {!reduce_arity}, {!unsplittable_out_dims}, {!reduce_merge}):
    which input dimensions correspond to which output dimensions or reduce
    axes.  The dimension graph (§4.1) and the fission transformation
    (§4.2) are built entirely from these.

    Sliding-window axes (conv/pool H and W) produce no dimension links,
    matching the paper's footnote 2. *)

type input_kind =
  | Placeholder  (** network input (images, token ids) *)
  | Weight  (** trainable parameter; resident for the whole run *)
  | Label  (** training target or gradient seed *)

type unary_kind =
  | Relu
  | Gelu
  | Tanh
  | Sigmoid
  | Exp
  | Sqrt
  | Neg
  | Identity
  | Dropout
  | Scale of float

type binary_kind = Add | Sub | Mul | Div | Max
type reduce_kind = R_sum | R_mean | R_max
type conv_attrs = { stride : int; padding : int }
type pool_kind = P_max | P_avg
type pool_attrs = { p_kind : pool_kind; kernel : int; p_stride : int }

type kind =
  | Input of input_kind
  | Matmul of { trans_a : bool; trans_b : bool }
  | Dense of { trans_w : bool }
      (** [x[...,k] * w[k,n] -> y[...,n]]: contraction over the last input
          dim only, so leading (batch/sequence) dims stay linked for
          fission *)
  | Dense_bwd_weight
      (** [x[...,k], dy[...,n] -> dw[k,n]]; leading dims are reduce axes —
          batch fission yields partial gradients summed together (Fig. 5) *)
  | Batch_matmul of { trans_a : bool; trans_b : bool }
  | Conv2d of conv_attrs
  | Conv2d_bwd_data of conv_attrs
      (** 2 operands: transposed convolution; 3 operands: data gradient
          with the forward input as a shape carrier *)
  | Conv2d_bwd_weight of conv_attrs
  | Pool2d of pool_attrs
  | Pool2d_bwd of pool_attrs
  | Unary of unary_kind
  | Binary of binary_kind
  | Bias_add of int
  | Softmax of int
  | Softmax_bwd of int
  | Layer_norm of int
  | Layer_norm_bwd of int
  | Batch_norm  (** frozen affine BN (see DESIGN.md) *)
  | Reduce of reduce_kind * int list
  | Broadcast of { dims : int array; axes : int list }
  | Transpose of int array
  | Reshape of int array
  | Slice of { axis : int; lo : int; hi : int }
  | Concat of int
  | Embedding
  | Embedding_bwd
  | Store  (** swap-out to host storage (copy stream) *)
  | Load  (** swap-in from host storage (copy stream) *)

(** Dimension correspondence of one input dimension. *)
type dim_link =
  | To_out of int  (** matches this output dimension *)
  | To_reduce of int  (** feeds this reduce axis *)

val input_kind_name : input_kind -> string
val name : kind -> string

(** Structural fingerprint (for WL hashing). *)
val fingerprint : kind -> int64

val is_input : kind -> bool
val is_weight : kind -> bool
val is_swap : kind -> bool

(** Zero-cost view operators (transpose/reshape/slice/identity). *)
val is_view : kind -> bool

(** Output shape from input shapes; [Error] on malformed use.  This is
    [Abstract (Int_dims)] behind zero-copy conversions, so the symbolic
    rule-soundness proofs cover the very function graphs are built with.
    Raises [Invalid_argument] on a non-positive result extent (a
    [Reshape]/[Broadcast] target), as {!Shape.create} does. *)
val infer : kind -> Shape.t array -> (Shape.t, string) result

(** Dimension domain over which {!Abstract} interprets shape inference.
    [equal]/[geq]/[div_floor] are *provability* predicates: a
    [false]/[None] answer means "cannot prove", not "provably false".
    Over {!Int_dims} every fact is decided; over a symbolic domain the
    interpreter is sound but partial. *)
module type DIM_DOMAIN = sig
  type dim
  type dt

  val const : int -> dim
  val add : dim -> dim -> dim
  val sub : dim -> dim -> dim
  val mul : dim -> dim -> dim

  (** Provable equality of two extents. *)
  val equal : dim -> dim -> bool

  (** Provable [a >= b]. *)
  val geq : dim -> dim -> bool

  (** [div_floor d k]: a provable [⌊d / k⌋] for [k > 0] (the strided
      conv/pool extent); [None] when [k <= 0] or the domain cannot name
      the quotient. *)
  val div_floor : dim -> int -> dim option

  val to_const : dim -> int option

  (** Provable equality of two element types. *)
  val dt_equal : dt -> dt -> bool
end

(** The one operator-by-operator shape inference, over any dimension
    domain: instantiated with {!Int_dims} it is {!infer}; instantiated
    with a symbolic domain (Magis_analysis.Symshape) it proves inference
    facts for *all* extents at once. *)
module Abstract (D : DIM_DOMAIN) : sig
  type shape = D.dim array * D.dt

  val infer : kind -> shape array -> (shape, string) result
end

(** Concrete [int] instantiation of {!DIM_DOMAIN}: ordinary arithmetic
    with flooring division.  The domain of {!infer}. *)
module Int_dims : sig
  include DIM_DOMAIN with type dim = int and type dt = Shape.dtype
end

(** Floating-point work of one execution. *)
val flops : kind -> Shape.t array -> Shape.t -> float

(** Device-memory traffic of one execution. *)
val bytes_moved : kind -> Shape.t array -> Shape.t -> float

(** Number of reduce axes ([r_v] in the paper). *)
val reduce_arity : kind -> Shape.t array -> int

(** [(slot, input_dim, link)] triples; unlisted dimensions are opaque
    (windows, gather indices). *)
val links : kind -> Shape.t array -> Shape.t -> (int * int * dim_link) list

(** Output dimensions along which the operator must not be sliced. *)
val unsplittable_out_dims : kind -> Shape.t array -> Shape.t -> int list

(** How partial outputs combine when splitting along a reduce axis. *)
val reduce_merge : kind -> [ `Sum | `Max | `No_merge ]
