(** Memory-constrained U-Net training (the paper's Fig. 16 case study):
    optimize the same network at two peak-memory caps and print the
    execution-time/memory profile of each plan.

    Run with: [dune exec examples/unet_memory.exe] *)

open Magis

let profile cost label graph ftree schedule =
  let acc = Ftree.accounting cost (Graph_index.of_graph graph) ftree in
  let r =
    Simulator.run ~size_of:acc.size_of ~cost_of:acc.cost_of cost graph
      schedule
  in
  let mem = Lifetime.timeline r.analysis in
  let n = Array.length mem in
  Fmt.pr "%s: peak %.1f MB, latency %.2f ms@." label
    (float_of_int r.peak_mem /. 1e6)
    (r.latency *. 1e3);
  (* a coarse ASCII profile: 50 columns, peak-normalized *)
  let columns = 50 in
  let sample = max 1 (n / columns) in
  Fmt.pr "  [";
  Array.iteri
    (fun i m ->
      if i mod sample = 0 then
        let h = 9 * m / max 1 r.peak_mem in
        Fmt.pr "%c" (Char.chr (Char.code '0' + min 9 h)))
    mem;
  Fmt.pr "]@."

let () =
  let cost = Op_cost.create Hardware.default in
  let graph = Zoo.unet.build Zoo.Quick in
  Fmt.pr "UNet training, batch 32@.";
  profile cost "PyTorch " graph Ftree.empty (Graph.topo_order graph);
  let config = { Search.default_config with time_budget = 6.0 } in
  List.iter
    (fun (label, mem_ratio) ->
      let r = Search.optimize_latency ~config cost ~mem_ratio graph in
      profile cost label r.best.graph r.best.ftree r.best.schedule)
    [ ("MAGIS-80%", 0.8); ("MAGIS-60%", 0.6) ]
