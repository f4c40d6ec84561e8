(** XLA-style baseline (§7.1): greedy rematerialization — largest saved
    activations evicted first, re-computed once per backward use, with a
    compounding transitive-recompute factor and a backward re-peak floor. *)

open Magis_ir
open Magis_cost

val run : Op_cost.t -> Graph.t -> budget:int -> Outcome.t
