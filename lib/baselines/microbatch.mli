(** Micro-batching pre-processing (Fig. 12): build the model at
    [batch/factor], optimize one micro-batch with POFO, scale latency by
    the factor. *)

open Magis_ir
open Magis_cost

val run :
  Op_cost.t -> build:(int -> Graph.t) -> batch:int -> factor:int ->
  budget:int -> Outcome.t
