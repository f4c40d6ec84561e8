(** Quickstart: build a training graph, look at its memory profile, and
    let MAGIS shrink the peak under a 10% latency budget.

    Run with: [dune exec examples/quickstart.exe] *)

open Magis

let mb bytes = float_of_int bytes /. 1e6
let ms secs = secs *. 1e3

let () =
  (* 1. a cost model for the target device (an RTX 3090 by default) *)
  let cost = Op_cost.create Hardware.default in
  Fmt.pr "device: %a@." Hardware.pp Hardware.default;

  (* 2. a workload: U-Net training, reduced size *)
  let graph = Unet.build_unet ~batch:8 ~image:64 ~base:16 ~depth:3 () in
  Fmt.pr "graph: %d operators, %.1f MB of weights@." (Graph.n_nodes graph)
    (mb (Graph.weight_bytes graph));

  (* 3. the unoptimized profile (PyTorch-style execution) *)
  let base = Simulator.baseline cost (Graph_index.of_graph graph) in
  Fmt.pr "unoptimized: peak %.1f MB, latency %.2f ms@." (mb base.peak_mem)
    (ms base.latency);

  (* 4. optimize memory with at most 10%% extra latency *)
  let config = { Search.default_config with time_budget = 5.0 } in
  let result = Search.optimize_memory ~config cost ~overhead:0.10 graph in
  let best = result.best in
  Fmt.pr "MAGIS:       peak %.1f MB (%.0f%%), latency %.2f ms (%+.1f%%)@."
    (mb best.peak_mem)
    (100.0 *. float_of_int best.peak_mem /. float_of_int base.peak_mem)
    (ms best.latency)
    (100.0 *. (best.latency -. base.latency) /. base.latency);

  (* 5. what did it do? *)
  let fissions = Ftree.enabled_indices best.ftree in
  let swaps =
    Graph.fold
      (fun n acc -> if n.op = Op.Store then acc + 1 else acc)
      best.graph 0
  in
  Fmt.pr "plan: %d fission region(s), %d tensor(s) swapped to host, %d graph nodes@."
    (List.length fissions) swaps
    (Graph.n_nodes best.graph);
  List.iter
    (fun i ->
      let f = Ftree.fission_at best.ftree i in
      Fmt.pr "  - split a %d-operator region into %d sequential parts@."
        (Util.Int_set.cardinal (Fission.members f))
        (Fission.fission_number f))
    fissions
