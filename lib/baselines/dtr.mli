(** DTR baseline (Kirisame et al., ICLR'21), simulated as the runtime it
    is: execution under a hard memory budget with on-demand eviction by
    the DTR heuristic [h(t) = cost / (size x staleness)] and recursive
    recomputation; thrashing runs are reported as failures. *)

open Magis_ir
open Magis_cost

val run : ?thrash_factor:int -> Op_cost.t -> Graph.t -> budget:int -> Outcome.t
