(** Micro-batching pre-processing (the Fig. 12 experiment): split the whole
    network along the batch dimension into [factor] sub-graphs, feed one
    sub-graph to POFO, and multiply the execution latency by the factor —
    exactly how the paper integrates a "simple F-Trans" into a baseline. *)

open Magis_ir
open Magis_cost

(** [run cost ~build ~batch ~factor ~budget] builds the model at batch
    size [batch/factor], lets POFO optimize it under [budget], and scales
    latency by [factor].  Weight gradients are accumulated across
    micro-batches, so the budget applies to a single micro-batch. *)
let run (cost : Op_cost.t) ~(build : int -> Graph.t) ~(batch : int)
    ~(factor : int) ~(budget : int) : Outcome.t =
  if batch mod factor <> 0 then
    invalid_arg "Microbatch.run: factor must divide the batch size";
  let sub = build (batch / factor) in
  (* the micro-batch sub-graph is freshly built: verify it (and its
     execution order) before handing it to POFO when hooks are on *)
  ignore
    (Magis_analysis.Hooks.schedule ~what:"micro-batch sub-graph" sub
       (Graph.topo_order sub));
  let o = Pofo.run cost sub ~budget in
  let name = Printf.sprintf "POFO(factor=%d)" factor in
  if not o.feasible then Outcome.infeasible name
  else
    {
      o with
      system = name;
      latency = o.latency *. float_of_int factor;
    }
