(** POFO-style baseline (Beaumont et al., NeurIPS'21): optimal combination
    of re-materialization and offloading over a sequentialized network —
    a DP over (stage, freed bytes, offloaded bytes) choosing
    Keep/Recompute/Offload per stage, pricing the offload stall per link
    direction and bounding frees by the backward re-peak. *)

open Magis_ir
open Magis_cost

type policy = Keep | Recompute | Offload

(** Run under a device-memory [budget]. *)
val run : Op_cost.t -> Graph.t -> budget:int -> Outcome.t
