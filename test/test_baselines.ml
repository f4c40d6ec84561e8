open Magis
open Helpers

let subject () = Zoo.bert.build Zoo.Quick

let test_naive_matches_simulator () =
  let c = cache () in
  let g = subject () in
  let o = Naive.run c g in
  let r = Simulator.run c g (Graph.topo_order g) in
  Alcotest.(check int) "peak" r.peak_mem o.peak_mem;
  Alcotest.(check (float 1e-9)) "latency" r.latency o.latency;
  Alcotest.(check bool) "feasible" true o.feasible

let test_fusion_improves_latency_not_memory () =
  let c = cache () in
  let g = subject () in
  let base = Naive.run c g in
  let tvm = Fusion_compiler.run Fusion_compiler.Tvm c g in
  let ti = Fusion_compiler.run Fusion_compiler.Torch_inductor c g in
  Alcotest.(check bool) "TVM faster than eager" true (tvm.latency < base.latency);
  Alcotest.(check bool) "TI at least as aggressive as TVM" true
    (ti.latency <= tvm.latency);
  Alcotest.(check int) "TVM memory unchanged" base.peak_mem tvm.peak_mem;
  let constrained =
    Fusion_compiler.constrained Fusion_compiler.Tvm c g
      ~mem_limit:(base.peak_mem / 2)
  in
  Alcotest.(check bool) "cannot meet 50% budget" false constrained.feasible

let test_pofo_curve_monotone () =
  let c = cache () in
  let g = subject () in
  let base = Naive.run c g in
  let lat_at r =
    let o = Pofo.run c g ~budget:(int_of_float (float_of_int base.peak_mem *. r)) in
    if o.feasible then Some o.latency else None
  in
  match (lat_at 0.9, lat_at 0.6, lat_at 0.45) with
  | Some l9, Some l6, Some l45 ->
      Alcotest.(check bool) "tighter budget costs more" true
        (l9 <= l6 +. 1e-9 && l6 <= l45 +. 1e-9)
  | _ -> Alcotest.fail "POFO failed on moderate budgets"

let test_pofo_infeasible_below_floor () =
  let c = cache () in
  let g = subject () in
  let o = Pofo.run c g ~budget:(Graph.weight_bytes g / 2) in
  Alcotest.(check bool) "below weights is impossible" false o.feasible

let test_xla_worse_than_pofo_when_tight () =
  let c = cache () in
  let g = subject () in
  let base = Naive.run c g in
  let budget = int_of_float (float_of_int base.peak_mem *. 0.45) in
  let p = Pofo.run c g ~budget in
  let x = Xla.run c g ~budget in
  match (p.feasible, x.feasible) with
  | true, true ->
      Alcotest.(check bool) "greedy XLA pays at least POFO's latency" true
        (x.latency >= p.latency -. 1e-9)
  | true, false -> () (* XLA giving up outright is also 'worse' *)
  | false, _ -> Alcotest.fail "POFO should be feasible at 45%"

let test_dtr_executes_and_degrades () =
  let c = cache () in
  let g = subject () in
  let base = Naive.run c g in
  let relaxed = Dtr.run c g ~budget:base.peak_mem in
  Alcotest.(check bool) "full budget feasible" true relaxed.feasible;
  Alcotest.(check bool) "no recompute overhead at full budget" true
    (relaxed.latency <= base.latency *. 1.001);
  let tight =
    Dtr.run c g
      ~budget:(int_of_float (float_of_int base.peak_mem *. 0.6))
  in
  Alcotest.(check bool) "tight budget feasible" true tight.feasible;
  Alcotest.(check bool) "tight budget costs recomputes" true
    (tight.latency > base.latency)

let test_dtr_fails_below_pinned () =
  let c = cache () in
  let g = subject () in
  let o = Dtr.run c g ~budget:(Graph.weight_bytes g / 2) in
  Alcotest.(check bool) "impossible budget fails" false o.feasible

let test_min_memory_bisection () =
  let c = cache () in
  let g = subject () in
  let base = Naive.run c g in
  let o =
    Outcome.min_memory c g ~lat_limit:(base.latency *. 1.10) (Pofo.run c g)
  in
  Alcotest.(check bool) "feasible" true o.feasible;
  Alcotest.(check bool) "improves on baseline" true (o.peak_mem < base.peak_mem);
  Alcotest.(check bool) "respects the latency limit" true
    (o.latency <= base.latency *. 1.10 +. 1e-9)

let test_microbatch_scales_latency () =
  let c = cache () in
  let build batch =
    Transformer.build_lm
      { Transformer.batch; seq_len = 16; hidden = 32; heads = 2; layers = 1;
        vocab = 64; dtype = Shape.F32 }
  in
  let g = build 16 in
  let base = Naive.run c g in
  let o =
    Microbatch.run c ~build ~batch:16 ~factor:4 ~budget:base.peak_mem
  in
  Alcotest.(check bool) "feasible" true o.feasible;
  (* four sequential micro-batches: latency is roughly scaled, memory is
     roughly quartered for activations *)
  Alcotest.(check bool) "peak below full batch" true (o.peak_mem < base.peak_mem);
  Alcotest.(check bool) "latency near base (4 quarter-batches)" true
    (o.latency > 0.5 *. base.latency)

let test_chain_stage_invariants () =
  let c = cache () in
  let g = subject () in
  let chain = Chain.analyze c g in
  Alcotest.(check bool) "several stages" true (Chain.n_stages chain > 3);
  List.iter
    (fun (s : Chain.stage) ->
      Alcotest.(check bool) "stage cost non-negative" true (s.cost >= 0.0);
      Alcotest.(check bool) "saved bytes non-negative" true (s.saved_bytes >= 0))
    chain.stages;
  Alcotest.(check bool) "forward+backward = graph" true
    (Util.Int_set.cardinal chain.forward
     + Util.Int_set.cardinal chain.backward
    = Graph.n_nodes g)

let suite =
  [
    tc "naive matches simulator" test_naive_matches_simulator;
    tc "fusion: latency not memory" test_fusion_improves_latency_not_memory;
    tc "POFO curve monotone" test_pofo_curve_monotone;
    tc "POFO infeasible below floor" test_pofo_infeasible_below_floor;
    tc "XLA at or above POFO latency" test_xla_worse_than_pofo_when_tight;
    tc "DTR executes and degrades" test_dtr_executes_and_degrades;
    tc "DTR fails below pinned bytes" test_dtr_fails_below_pinned;
    tc "min-memory bisection" test_min_memory_bisection;
    tc "micro-batching" test_microbatch_scales_latency;
    tc "chain stage invariants" test_chain_stage_invariants;
  ]
