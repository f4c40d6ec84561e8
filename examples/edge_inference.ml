(** Edge deployment (the paper's mobile motivation): batch-1
    high-resolution U-Net inference on a phone-class device.  Batch
    fission has no leverage at batch 1 — the *spatial* (halo) fission
    extension splits the high-resolution convolution chains along the
    image height instead.

    Run with: [dune exec examples/edge_inference.exe] *)

open Magis

let mb b = float_of_int b /. 1e6

let () =
  let cost = Op_cost.create Hardware.mobile in
  Fmt.pr "device: %a@." Hardware.pp Hardware.mobile;
  let graph = Unet.srnet_inference ~image:512 ~channels:64 ~depth:12 () in
  let base = Simulator.baseline cost (Graph_index.of_graph graph) in
  Fmt.pr "VDSR super-resolution, batch 1, 512x512: %d ops, peak %.1f MB, %.1f ms@."
    (Graph.n_nodes graph) (mb base.peak_mem) (base.latency *. 1e3);

  (* spatial fission candidates: stride-1 same-conv chains *)
  let cands = Spatial.candidates graph in
  Fmt.pr "%d spatially splittable convolution chains@." (List.length cands);

  (* split the longest chains and measure the real expanded graphs *)
  let split n =
    let g =
      List.fold_left
        (fun g (f : Spatial.t) ->
          let f = { f with n } in
          if Spatial.is_valid g f then (Spatial.expand g f).graph else g)
        graph
        (Util.take 3 cands)
    in
    let order = Reorder.schedule ~max_states:0 g in
    let r = Simulator.run cost g order in
    Fmt.pr "  split x%d: %3d ops, peak %.1f MB (%.0f%%), %.1f ms (%+.1f%%)@."
      n (Graph.n_nodes g) (mb r.peak_mem)
      (100.0 *. float_of_int r.peak_mem /. float_of_int base.peak_mem)
      (r.latency *. 1e3)
      (100.0 *. (r.latency -. base.latency) /. base.latency)
  in
  List.iter split [ 2; 4 ];

  (* and the coordinated optimizer on the same graph, for comparison *)
  let config = { Search.default_config with time_budget = 5.0 } in
  let r = Search.optimize_memory ~config cost ~overhead:0.10 graph in
  Fmt.pr "MAGIS (graph scheduling only, batch=1): peak %.1f MB (%.0f%%), %+.1f%%@."
    (mb r.best.peak_mem)
    (100.0 *. float_of_int r.best.peak_mem /. float_of_int base.peak_mem)
    (100.0 *. (r.best.latency -. base.latency) /. base.latency)
