(** End-to-end integration tests: the full pipeline (model → analysis →
    optimization → expanded output) on small real workloads. *)

open Magis
open Helpers
module Int_set = Util.Int_set

let small_budget =
  { Search.default_config with time_budget = 2.0; max_iterations = 80 }

let test_end_to_end_unet () =
  let c = cache () in
  let g = Unet.build_unet ~batch:4 ~image:32 ~base:8 ~depth:3 () in
  let base = Simulator.run c g (Graph.topo_order g) in
  let r = Search.optimize_memory ~config:small_budget c ~overhead:0.10 g in
  Alcotest.(check bool) "memory reduced" true (r.best.peak_mem < base.peak_mem);
  Alcotest.(check bool) "latency bounded" true
    (r.best.latency <= base.latency *. 1.101)

let test_optimized_state_expandable () =
  (* the final M-State's virtual fissions can be materialized into a real
     graph via expansion *)
  let c = cache () in
  let g =
    Transformer.build_lm
      { Transformer.batch = 8; seq_len = 16; hidden = 32; heads = 2;
        layers = 1; vocab = 64; dtype = Shape.F32 }
  in
  let r = Search.optimize_memory ~config:small_budget c ~overhead:0.15 g in
  let best = r.best in
  let expanded = Ftree.realize best.graph best.ftree in
  (* the expanded graph is a valid computation graph with the same
     interface size *)
  ignore (Graph.topo_order expanded);
  Alcotest.(check bool) "outputs preserved" true
    (List.length (Graph.outputs expanded) >= List.length (Graph.outputs g))

let test_magis_beats_naive_on_all_quick_workloads () =
  let c = cache () in
  List.iter
    (fun name ->
      let w = Zoo.find name in
      let g = w.build Zoo.Quick in
      let base = Naive.run c g in
      let r = Search.optimize_memory ~config:small_budget c ~overhead:0.10 g in
      Alcotest.(check bool) (name ^ ": memory reduced") true
        (r.best.peak_mem < base.peak_mem))
    [ "UNet"; "BERT-base" ]

let test_pareto_dominance_over_baselines () =
  (* at a fixed memory budget, MAGIS should not be dramatically slower
     than the best baseline (sanity for Fig. 11) *)
  let c = cache () in
  let g = Zoo.unet.build Zoo.Quick in
  let base = Naive.run c g in
  let budget = int_of_float (float_of_int base.peak_mem *. 0.6) in
  let config = { Search.default_config with time_budget = 8.0 } in
  let magis =
    Search.run ~config c (Search.Min_latency { mem_limit = budget }) g
  in
  Alcotest.(check bool) "MAGIS meets the budget" true
    (magis.best.peak_mem <= budget);
  let pofo = Pofo.run c g ~budget in
  (if pofo.feasible then
     Alcotest.(check bool) "MAGIS latency within 1.25x of POFO" true
       (magis.best.latency <= 1.25 *. pofo.latency))

let test_store_load_decomposition_invariant () =
  (* after optimization, every Load has a Store producer and every Store
     has a device-resident source — the §5.2 decomposition stays sound *)
  let c = cache () in
  let g = Zoo.bert.build Zoo.Quick in
  let r = Search.optimize_memory ~config:small_budget c ~overhead:0.10 g in
  Graph.iter
    (fun n ->
      match n.op with
      | Op.Load ->
          Alcotest.(check string) "load reads a store" "store"
            (Op.name (Graph.op r.best.graph n.inputs.(0)))
      | Op.Store ->
          Alcotest.(check bool) "store reads a tensor" true
            (not (Op.is_swap (Graph.op r.best.graph n.inputs.(0))))
      | _ -> ())
    r.best.graph

let test_simulated_schedule_consistency () =
  (* re-simulating the best state reproduces its recorded numbers *)
  let c = cache () in
  let g = Zoo.unet.build Zoo.Quick in
  let r = Search.optimize_memory ~config:small_budget c ~overhead:0.10 g in
  let best = r.best in
  let again = Mstate.evaluate c best.graph best.ftree best.schedule in
  Alcotest.(check int) "peak reproducible" best.peak_mem again.peak_mem;
  Alcotest.(check (float 1e-9)) "latency reproducible" best.latency
    again.latency

let suite =
  [
    tc "end-to-end UNet optimization" test_end_to_end_unet;
    tc "optimized state expandable" test_optimized_state_expandable;
    tc "improves all quick workloads" test_magis_beats_naive_on_all_quick_workloads;
    tc "near-Pareto vs POFO" test_pareto_dominance_over_baselines;
    tc "store/load decomposition invariant" test_store_load_decomposition_invariant;
    tc "simulation consistency" test_simulated_schedule_consistency;
  ]
