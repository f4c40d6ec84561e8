(** A small imperative DSL for constructing computation graphs.

    A [Builder.t] wraps a growing {!Magis_ir.Graph.t}; each combinator adds
    one operator node and returns its id.  [finish] extracts the immutable
    graph. *)

open Magis_ir

type t = { mutable g : Graph.t }

let create () = { g = Graph.empty }
let finish b = b.g
let graph b = b.g
let shape b id = Graph.shape b.g id

let input ?(label = "x") b dims ~dtype =
  let g, id = Graph.add_input ~label b.g Op.Placeholder (Shape.create ~dtype dims) in
  b.g <- g;
  id

let weight ?(label = "w") b dims ~dtype =
  let g, id = Graph.add_input ~label b.g Op.Weight (Shape.create ~dtype dims) in
  b.g <- g;
  id

let op ?(label = "") b kind inputs =
  let g, id = Graph.add ~label b.g kind inputs in
  b.g <- g;
  id

(* shorthand combinators *)
let matmul ?(trans_a = false) ?(trans_b = false) b a w =
  op b (Op.Matmul { trans_a; trans_b }) [ a; w ]

let dense ?(trans_w = false) b x w = op b (Op.Dense { trans_w }) [ x; w ]
let bmm ?(trans_a = false) ?(trans_b = false) b a c =
  op b (Op.Batch_matmul { trans_a; trans_b }) [ a; c ]

let conv2d ?(stride = 1) ?(padding = 0) b x w =
  op b (Op.Conv2d { stride; padding }) [ x; w ]

let maxpool2d ?(kernel = 2) ?(stride = 2) b x =
  op b (Op.Pool2d { p_kind = Op.P_max; kernel; p_stride = stride }) [ x ]

let avgpool2d ?(kernel = 2) ?(stride = 2) b x =
  op b (Op.Pool2d { p_kind = Op.P_avg; kernel; p_stride = stride }) [ x ]

let relu b x = op b (Op.Unary Op.Relu) [ x ]
let gelu b x = op b (Op.Unary Op.Gelu) [ x ]
let tanh_ b x = op b (Op.Unary Op.Tanh) [ x ]
let sigmoid b x = op b (Op.Unary Op.Sigmoid) [ x ]
let dropout b x = op b (Op.Unary Op.Dropout) [ x ]
let scale b f x = op b (Op.Unary (Op.Scale f)) [ x ]
let add b x y = op b (Op.Binary Op.Add) [ x; y ]
let sub b x y = op b (Op.Binary Op.Sub) [ x; y ]
let mul b x y = op b (Op.Binary Op.Mul) [ x; y ]
let bias_add ?(axis = 1) b x bias = op b (Op.Bias_add axis) [ x; bias ]
let softmax b ~axis x = op b (Op.Softmax axis) [ x ]
let layer_norm b ~axis x gamma beta = op b (Op.Layer_norm axis) [ x; gamma; beta ]
let batch_norm b x gamma beta = op b Op.Batch_norm [ x; gamma; beta ]
let reduce_sum b ~axes x = op b (Op.Reduce (Op.R_sum, axes)) [ x ]
let transpose b ~perm x = op b (Op.Transpose perm) [ x ]
let reshape b ~dims x = op b (Op.Reshape dims) [ x ]
let slice b ~axis ~lo ~hi x = op b (Op.Slice { axis; lo; hi }) [ x ]
let concat b ~axis xs = op b (Op.Concat axis) xs
let embedding b table ids = op b Op.Embedding [ table; ids ]

(** Transposed convolution for decoder upsampling, realized as the data
    gradient of a strided convolution. *)
let deconv2d ?(stride = 2) b x w =
  op b (Op.Conv2d_bwd_data { stride; padding = 0 }) [ x; w ]

(** Linear layer: dense + bias along the last axis. *)
let linear b x w bias =
  let y = dense b x w in
  let r = Shape.rank (shape b y) in
  bias_add ~axis:(r - 1) b y bias

(** Scalar training loss: sum-reduce every axis of [pred]. *)
let sum_loss b pred =
  let r = Shape.rank (shape b pred) in
  reduce_sum b ~axes:(List.init r Fun.id) pred
