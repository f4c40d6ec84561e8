(** The unoptimized PyTorch baseline of §7.1: the graph is executed in
    simple topological order with basic memory saving (tensors are freed
    as soon as their last consumer has run — exactly what the lifetime
    analysis models). *)

open Magis_ir
open Magis_cost

let run (cost : Op_cost.t) (g : Graph.t) : Outcome.t =
  let order =
    Magis_analysis.Hooks.schedule ~what:"PyTorch baseline" g
      (Graph.topo_order g)
  in
  let res = Simulator.run cost g order in
  {
    Outcome.system = "PyTorch";
    peak_mem = res.peak_mem;
    latency = res.latency;
    feasible = true;
  }
