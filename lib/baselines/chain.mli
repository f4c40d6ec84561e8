(** Chain (stage) analysis of training graphs: the substrate of the
    POFO- and XLA-style baselines.  The forward part is chainified at its
    narrow waists; each stage records its compute cost and the activation
    bytes the backward pass consumes. *)

open Magis_ir
open Magis_cost
module Int_set = Util.Int_set

type stage = {
  members : Int_set.t;  (** forward nodes of this stage *)
  cost : float;  (** compute seconds of the stage *)
  saved_bytes : int;  (** activations consumed by the backward pass *)
}

type t = {
  stages : stage list;
  forward : Int_set.t;
  backward : Int_set.t;
  resident_bytes : int;  (** weights: always resident *)
  output_bytes : int;  (** graph outputs (gradients): pinned to the end *)
  fwd_compute : float;
  bwd_compute : float;
}

(** Forward/backward split: the backward part is everything reachable from
    label-kind inputs (the gradient seed). *)
val split : Graph.t -> Int_set.t * Int_set.t

val analyze : ?max_crossing:int -> Op_cost.t -> Graph.t -> t
val n_stages : t -> int
val total_saved : t -> int

(** Per-tensor view for the greedy XLA baseline:
    [(bytes, recompute cost x backward uses, stage transient bytes)]. *)
val saved_tensors : Op_cost.t -> Graph.t -> t -> (int * float * int) list
