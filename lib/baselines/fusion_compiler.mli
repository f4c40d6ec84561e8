(** TVM / Torch-Inductor stand-ins (§7.1): element-wise-chain fusion
    improves latency (fused intermediates skip launches and memory
    writes) while the reported peak memory stays at the basic-saving
    level — exactly how the paper characterizes both compilers. *)

open Magis_ir
open Magis_cost

type aggressiveness = Tvm | Torch_inductor

val run : aggressiveness -> Op_cost.t -> Graph.t -> Outcome.t

(** Fails when the budget is below the compiler's natural peak. *)
val constrained :
  aggressiveness -> Op_cost.t -> Graph.t -> mem_limit:int -> Outcome.t
