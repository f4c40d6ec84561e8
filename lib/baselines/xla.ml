(** XLA-style baseline (§7.1): a *greedy* rematerialization pass.

    XLA walks the saved activations and greedily discards/recomputes the
    largest ones until the budget is met, without weighing recompute cost
    — which is why its latency blows up under tight limits and why
    re-computing one tensor can transitively force recomputing others
    (modelled as a compounding factor on the recompute cost, cf. the
    near-exponential tail of its curve in Fig. 11). *)

open Magis_ir
open Magis_cost

let run (cost : Op_cost.t) (g : Graph.t) ~(budget : int) : Outcome.t =
  let base =
    Simulator.run cost g
      (Magis_analysis.Hooks.schedule ~what:"XLA baseline" g
         (Graph.topo_order g))
  in
  if base.peak_mem <= budget then
    { Outcome.system = "XLA"; peak_mem = base.peak_mem;
      latency = base.latency; feasible = true }
  else
    let chain = Chain.analyze cost g in
    (* greedy: largest saved activations evicted first, one tensor at a
       time, ignoring recompute cost *)
    let tensors =
      List.sort
        (fun (a, _, _) (b, _, _) -> compare b a)
        (Chain.saved_tensors cost g chain)
    in
    let total = Util.sum_by (fun (b, _, _) -> b) tensors in
    let need = base.peak_mem - budget in
    let floor_resident = chain.resident_bytes + chain.output_bytes in
    let rec go freed added evicted total_left = function
      | [] -> None
      | (bytes, cost, stage_saved) :: rest ->
          (* evicting a tensor transiently re-materializes its stage at
             backward time: the whole segment must fit under the budget *)
          if bytes = 0 || floor_resident + stage_saved > budget then
            go freed added evicted total_left rest
          else
            (* the more of the graph is already evicted, the likelier a
               recompute transitively re-runs evicted producers *)
            let evicted_fraction =
              float_of_int evicted /. float_of_int (max 1 total)
            in
            let factor = 1.0 +. (3.0 *. evicted_fraction) in
            let freed = freed + bytes in
            let added = added +. (cost *. factor) in
            if freed >= need then Some added
            else go freed added (evicted + bytes) total_left rest
    in
    match go 0 0.0 0 total tensors with
    | None -> Outcome.infeasible "XLA"
    | Some added ->
        {
          Outcome.system = "XLA";
          peak_mem = budget;
          latency = base.latency +. added;
          feasible = true;
        }
