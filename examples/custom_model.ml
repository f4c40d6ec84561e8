(** Bringing your own model: define a network with the builder DSL, get
    the training graph with reverse-mode autodiff, and optimize it.

    Run with: [dune exec examples/custom_model.exe] *)

open Magis
module B = Builder

(* a small conv-attention hybrid, just to show the DSL *)
let my_model ~batch =
  let b = B.create () in
  let x = B.input b [ batch; 3; 32; 32 ] ~dtype:Shape.F32 in
  (* conv stem *)
  let w1 = B.weight b [ 32; 3; 3; 3 ] ~dtype:Shape.F32 in
  let h = B.relu b (B.conv2d ~padding:1 b x w1) in
  let h = B.maxpool2d b h in
  (* flatten spatial grid into a sequence: [batch, 256, 32] *)
  let h = B.reshape b ~dims:[| batch; 32; 256 |] h in
  let seq = B.transpose b ~perm:[| 0; 2; 1 |] h in
  (* one attention layer over the 256 patches *)
  let att =
    Transformer.block b seq
      { Transformer.batch; seq_len = 256; hidden = 32; heads = 4;
        layers = 1; vocab = 1; dtype = Shape.F32 }
  in
  (* classifier *)
  let pooled = B.reduce_sum b ~axes:[ 1 ] att in
  let w_out = B.weight b [ 32; 10 ] ~dtype:Shape.F32 in
  let bias = B.weight b [ 10 ] ~dtype:Shape.F32 in
  let logits = B.linear b pooled w_out bias in
  let loss = B.sum_loss b logits in
  Autodiff.backward (B.finish b) ~loss

let () =
  let cost = Op_cost.create Hardware.default in
  let graph = my_model ~batch:64 in
  let base = Simulator.baseline cost (Graph_index.of_graph graph) in
  Fmt.pr "custom model: %d ops, peak %.1f MB, step %.2f ms@."
    (Graph.n_nodes graph)
    (float_of_int base.peak_mem /. 1e6)
    (base.latency *. 1e3);
  let config = { Search.default_config with time_budget = 5.0 } in
  let r = Search.optimize_memory ~config cost ~overhead:0.10 graph in
  Fmt.pr "optimized: peak %.1f MB (%.0f%%), step %.2f ms (%+.1f%%)@."
    (float_of_int r.best.peak_mem /. 1e6)
    (100.0 *. float_of_int r.best.peak_mem /. float_of_int base.peak_mem)
    (r.best.latency *. 1e3)
    (100.0 *. (r.best.latency -. base.latency) /. base.latency);
  (* inspect the improvement history *)
  Fmt.pr "search history:@.";
  List.iter
    (fun (t, peak, lat) ->
      Fmt.pr "  %5.1fs  %7.1f MB  %6.2f ms@." t
        (float_of_int peak /. 1e6)
        (lat *. 1e3))
    r.history
