(** A small imperative DSL for constructing computation graphs.

    A {!t} wraps a growing {!Magis_ir.Graph.t}; each combinator adds one
    operator node and returns its id.  [finish] extracts the immutable
    graph. *)

open Magis_ir

type t

val create : unit -> t

(** The accumulated (immutable) graph. *)
val finish : t -> Graph.t

(** Same as {!finish}; reads better mid-construction. *)
val graph : t -> Graph.t

val shape : t -> int -> Shape.t

(* sources *)
val input : ?label:string -> t -> int list -> dtype:Shape.dtype -> int
val weight : ?label:string -> t -> int list -> dtype:Shape.dtype -> int

(** Add an arbitrary operator node over existing node ids. *)
val op : ?label:string -> t -> Op.kind -> int list -> int

(* shorthand combinators *)
val matmul : ?trans_a:bool -> ?trans_b:bool -> t -> int -> int -> int
val dense : ?trans_w:bool -> t -> int -> int -> int
val bmm : ?trans_a:bool -> ?trans_b:bool -> t -> int -> int -> int
val conv2d : ?stride:int -> ?padding:int -> t -> int -> int -> int
val maxpool2d : ?kernel:int -> ?stride:int -> t -> int -> int
val avgpool2d : ?kernel:int -> ?stride:int -> t -> int -> int
val relu : t -> int -> int
val gelu : t -> int -> int
val tanh_ : t -> int -> int
val sigmoid : t -> int -> int
val dropout : t -> int -> int
val scale : t -> float -> int -> int
val add : t -> int -> int -> int
val sub : t -> int -> int -> int
val mul : t -> int -> int -> int
val bias_add : ?axis:int -> t -> int -> int -> int
val softmax : t -> axis:int -> int -> int
val layer_norm : t -> axis:int -> int -> int -> int -> int
val batch_norm : t -> int -> int -> int -> int
val reduce_sum : t -> axes:int list -> int -> int
val transpose : t -> perm:int array -> int -> int
val reshape : t -> dims:int array -> int -> int
val slice : t -> axis:int -> lo:int -> hi:int -> int -> int
val concat : t -> axis:int -> int list -> int
val embedding : t -> int -> int -> int

(** Transposed convolution for decoder upsampling, realized as the data
    gradient of a strided convolution. *)
val deconv2d : ?stride:int -> t -> int -> int -> int

(** Linear layer: dense + bias along the last axis. *)
val linear : t -> int -> int -> int -> int

(** Scalar training loss: sum-reduce every axis of [pred]. *)
val sum_loss : t -> int -> int
