(** The unoptimized PyTorch baseline of §7.1: the graph is executed in
    simple topological order with basic memory saving (tensors are freed
    as soon as their last consumer has run — exactly what the lifetime
    analysis models).  That plan is {!Simulator.baseline}'s; its order
    passes the verification hooks first. *)

open Magis_ir
open Magis_cost

let run (cost : Op_cost.t) (g : Graph.t) : Outcome.t =
  let ix = Graph_index.of_graph g in
  ignore
    (Magis_analysis.Hooks.schedule ~what:"PyTorch baseline" g
       (Array.to_list (Graph_index.order ix)));
  let res = Simulator.baseline cost ix in
  {
    Outcome.system = "PyTorch";
    peak_mem = res.peak_mem;
    latency = res.latency;
    feasible = true;
  }
