(** POFO-style baseline (Beaumont et al., NeurIPS'21): optimal combination
    of re-materialization and offloading over a *sequentialized* network.

    POFO views the model as a chain of stages and decides, per stage,
    what to do with the activations the backward pass will need:

    - [Keep]      — stay resident until their backward step;
    - [Recompute] — free them, re-run the stage's forward during backward;
    - [Offload]   — stream them to host memory and back, overlapping the
                    transfers with compute (extra latency only once the
                    link saturates).

    The implementation chainifies the forward graph at its narrow waists
    ({!Chain}) and solves the per-stage policy assignment by dynamic
    programming over (stage, kept-bytes) — the same structure as POFO's
    DP, against our cost model.  Networks whose skip connections prevent
    chainification (U-Net, U-Net++) get one giant stage and POFO has
    almost nothing to trade — the failure mode the paper reports. *)

open Magis_cost
open Magis_ir

type policy = Keep | Recompute | Offload

(** Outcome of running the training graph under a memory [budget]. *)
let run (cost : Op_cost.t) (g : Graph.t) ~(budget : int) : Outcome.t =
  let base =
    Simulator.run cost g
      (Magis_analysis.Hooks.schedule ~what:"POFO baseline" g
         (Graph.topo_order g))
  in
  if base.peak_mem <= budget then
    { Outcome.system = "POFO"; peak_mem = base.peak_mem;
      latency = base.latency; feasible = true }
  else
    let chain = Chain.analyze cost g in
    let stages = Array.of_list chain.stages in
    let n = Array.length stages in
    let need_to_free = base.peak_mem - budget in
    let total_saved = Chain.total_saved chain in
    if total_saved < need_to_free then Outcome.infeasible "POFO"
    else begin
      (* DP over (stage, freed bucket, offloaded bucket), minimizing the
         added recompute latency; the offload stall is computed from the
         offloaded volume at the end (transfers overlap compute until the
         link saturates). *)
      let buckets = 48 in
      let unit = max 1 ((total_saved / buckets) + 1) in
      let to_b bytes = min buckets ((bytes + unit - 1) / unit) in
      let inf = infinity in
      let hw = cost.Op_cost.hw in
      let dp =
        Array.init (n + 1) (fun _ ->
            Array.make_matrix (buckets + 1) (buckets + 1) inf)
      in
      dp.(0).(0).(0) <- 0.0;
      (* a stage's activations can only be freed if re-materializing or
         reloading them later fits in the budget next to the pinned
         weights and accumulated gradients (the backward re-peak) *)
      let floor_resident = chain.resident_bytes + chain.output_bytes in
      for i = 0 to n - 1 do
        let st = stages.(i) in
        let fb = to_b st.saved_bytes in
        let can_free = floor_resident + st.saved_bytes <= budget in
        for k = 0 to buckets do
          for o = 0 to buckets do
            let lat = dp.(i).(k).(o) in
            if lat < inf then begin
              let relax k' o' v =
                let k' = min buckets k' and o' = min buckets o' in
                if v < dp.(i + 1).(k').(o') then dp.(i + 1).(k').(o') <- v
              in
              relax k o lat;  (* Keep *)
              if can_free then begin
                relax (k + fb) o (lat +. st.cost);  (* Recompute *)
                relax (k + fb) (o + fb) lat  (* Offload *)
              end
            end
          done
        done
      done;
      (* cheapest plan freeing enough bytes, pricing the offload stall *)
      let needed = to_b need_to_free in
      let best = ref None in
      for k = needed to buckets do
        for o = 0 to buckets do
          let lat = dp.(n).(k).(o) in
          if lat < inf then begin
            (* stores must hide under the forward pass, loads under the
               backward pass: the link saturates per direction *)
            let transfer =
              float_of_int (o * unit) /. hw.Hardware.swap_bandwidth
            in
            let stall =
              Float.max 0.0 (transfer -. chain.fwd_compute)
              +. Float.max 0.0 (transfer -. chain.bwd_compute)
            in
            let total = lat +. stall in
            match !best with
            | Some b when b <= total -> ()
            | _ -> best := Some total
          end
        done
      done;
      match !best with
      | None -> Outcome.infeasible "POFO"
      | Some added ->
          {
            Outcome.system = "POFO";
            peak_mem = budget;
            latency = base.latency +. added;
            feasible = true;
          }
    end
