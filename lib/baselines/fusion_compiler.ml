(** TVM / Torch-Inductor stand-ins (§7.1).

    Both compilers perform only *basic memory saving* (free-when-dead, same
    as the PyTorch baseline) but improve latency by fusing chains of
    memory-bound operators: a fused intermediate is never written to device
    memory, saving its bytes and its kernel launch.  We implement the
    fusion analysis for real: maximal single-consumer chains of
    element-wise/view operators collapse into one kernel.  Torch-Inductor
    (Triton) additionally fuses through softmax/layer-norm style reductions,
    fusing a wider class — hence slightly better latency than TVM, as in
    Fig. 11.

    Fused intermediates still *do not* reduce the reported peak memory:
    these compilers plan memory conservatively at graph granularity (the
    paper measures their memory ratio at ≈ 1.0). *)

open Magis_ir
open Magis_cost
module Int_set = Util.Int_set

type aggressiveness = Tvm | Torch_inductor

let fusable aggressiveness (k : Op.kind) =
  match k with
  | Op.Unary _ | Op.Binary _ | Op.Bias_add _ | Op.Transpose _ | Op.Reshape _
  | Op.Slice _ | Op.Broadcast _ ->
      true
  | Op.Softmax _ | Op.Softmax_bwd _ | Op.Layer_norm _ | Op.Layer_norm_bwd _
  | Op.Batch_norm | Op.Reduce _ ->
      aggressiveness = Torch_inductor
  | _ -> false

(** Nodes whose output stays in registers: fusable, single consumer, and
    the consumer is fusable too (it continues the kernel). *)
let fused_intermediates aggressiveness (g : Graph.t) : Int_set.t =
  Graph.fold
    (fun n acc ->
      if fusable aggressiveness n.op then
        match Graph.suc g n.id with
        | [ c ] when fusable aggressiveness (Graph.op g c) ->
            Int_set.add n.id acc
        | _ -> acc
      else acc)
    g Int_set.empty

let run aggressiveness (cost : Op_cost.t) (g : Graph.t) : Outcome.t =
  let fused = fused_intermediates aggressiveness g in
  let hw = cost.Op_cost.hw in
  let cost_of v =
    let n = Graph.node g v in
    let base = Op_cost.node_cost cost g v in
    if base = 0.0 then base
    else
      (* producer fused into its consumer: no launch, no output write *)
      let output_write =
        float_of_int (Shape.size_bytes n.shape) /. hw.Hardware.mem_bandwidth
      in
      let fused_out = Int_set.mem v fused in
      (* inputs that are fused intermediates are read from registers *)
      let fused_in =
        Array.fold_left
          (fun acc u ->
            if Int_set.mem u fused then
              acc
              +. float_of_int (Shape.size_bytes (Graph.shape g u))
                 /. hw.Hardware.mem_bandwidth
            else acc)
          0.0 n.inputs
      in
      let c = base -. fused_in in
      let c = if fused_out then c -. output_write -. hw.Hardware.launch_overhead else c in
      Float.max (hw.Hardware.launch_overhead /. 4.0) c
  in
  let res =
    Simulator.run ~cost_of cost g
      (Magis_analysis.Hooks.schedule ~what:"fusion-compiler baseline" g
         (Graph.topo_order g))
  in
  {
    Outcome.system =
      (match aggressiveness with Tvm -> "TVM" | Torch_inductor -> "TI");
    peak_mem = res.peak_mem;
    latency = res.latency;
    feasible = true;
  }

(** Fig. 9/10 use these compilers under memory constraints they cannot
    meet (they only do basic memory saving): [constrained] reports failure
    when the budget is below their natural peak. *)
let constrained aggressiveness cost g ~(mem_limit : int) : Outcome.t =
  let o = run aggressiveness cost g in
  if o.peak_mem <= mem_limit then o else { o with feasible = false }
