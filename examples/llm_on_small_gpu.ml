(** Fitting an LLM training step onto a small device: GPT-Neo-style
    training needs tens of GB unoptimized; this example asks MAGIS to
    bring the peak under a target and compares against the baselines.

    Run with: [dune exec examples/llm_on_small_gpu.exe] *)

open Magis

let gb bytes = float_of_int bytes /. 1e9
let mb bytes = float_of_int bytes /. 1e6

let () =
  let cost = Op_cost.create Hardware.default in
  (* a reduced GPT-Neo so the example runs in seconds; scale up at will *)
  let graph =
    Transformer.build_lm
      (Transformer.gpt_neo_1_3b ~seq_len:256 ~layers:4 ~vocab:8192 ())
  in
  let base = Simulator.baseline cost (Graph_index.of_graph graph) in
  Fmt.pr "GPT-Neo (4 layers, seq 256): %d ops, weights %.2f GB, peak %.2f GB, step %.0f ms@."
    (Graph.n_nodes graph)
    (gb (Graph.weight_bytes graph))
    (gb base.peak_mem) (base.latency *. 1e3);

  let target_ratio = 0.5 in
  let config = { Search.default_config with time_budget = 8.0 } in
  let r = Search.optimize_latency ~config cost ~mem_ratio:target_ratio graph in
  let budget, _ = Search.limits r.mode in
  Fmt.pr "target: %.2f GB (%.0f%% of unoptimized)@." (gb budget)
    (100.0 *. target_ratio);

  (* baselines *)
  let report (o : Outcome.t) =
    if o.feasible then
      Fmt.pr "  %-8s peak %8.1f MB, step %+6.1f%%@." o.system (mb o.peak_mem)
        (100.0 *. (o.latency -. base.latency) /. base.latency)
    else Fmt.pr "  %-8s FAILURE@." o.system
  in
  report (Pofo.run cost graph ~budget);
  report (Dtr.run cost graph ~budget);
  report (Xla.run cost graph ~budget);

  (* MAGIS *)
  report
    {
      Outcome.system = "MAGIS";
      peak_mem = r.best.peak_mem;
      latency = r.best.latency;
      feasible = Search.limit_met r;
    };
  Fmt.pr "MAGIS plan: %d fission region(s), %d swap(s), %d re-materialized op(s)@."
    (List.length (Ftree.enabled_indices r.best.ftree))
    (Graph.fold (fun n a -> if n.op = Op.Store then a + 1 else a) r.best.graph 0)
    (Graph.n_nodes r.best.graph - Graph.n_nodes graph)
