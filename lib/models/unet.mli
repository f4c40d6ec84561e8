(** Convolutional workload builders: U-Net and U-Net++ (the paper's
    complex inter-cell-connection subjects), plus VDSR-style
    super-resolution and DenseNet stacks used by the extension
    experiments. *)

open Magis_ir

(** 2x transposed-convolution upsampling. *)
val up : Builder.t -> int -> in_ch:int -> out_ch:int -> dtype:Shape.dtype -> int

(** U-Net training graph. *)
val build_unet :
  ?dtype:Shape.dtype -> ?classes:int -> batch:int -> image:int -> base:int ->
  depth:int -> unit -> Graph.t

(** Inference-only U-Net (edge deployment). *)
val unet_inference :
  ?dtype:Shape.dtype -> ?classes:int -> batch:int -> image:int -> base:int ->
  depth:int -> unit -> Graph.t

(** U-Net++ training graph (dense nested skip pathways). *)
val build_unetpp :
  ?dtype:Shape.dtype -> ?classes:int -> batch:int -> image:int -> base:int ->
  depth:int -> unit -> Graph.t

(** VDSR-style super-resolution chain (batch-1 inference; the spatial
    fission subject). *)
val srnet_inference :
  ?dtype:Shape.dtype -> ?channels:int -> ?depth:int -> image:int -> unit ->
  Graph.t

(** DenseNet-style training graph (the paper's §2.3 long-skip citation). *)
val densenet_training :
  ?dtype:Shape.dtype -> ?growth:int -> ?layers:int -> ?blocks:int ->
  batch:int -> image:int -> unit -> Graph.t
