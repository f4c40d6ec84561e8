open Magis
open Helpers

let test_cost_positive_and_cached () =
  let c = cache () in
  let g = mlp_training () in
  Graph.iter
    (fun n ->
      let t = Op_cost.node_cost c g n.id in
      if Op.is_input n.op || Op.is_swap n.op then
        Alcotest.(check (float 0.0)) "free" 0.0 t
      else
        Alcotest.(check bool) (Printf.sprintf "%s > 0" (Op.name n.op)) true
          (t > 0.0))
    g;
  Op_cost.reset_stats c;
  ignore (Op_cost.graph_cost c g);
  let hits, misses = Op_cost.stats c in
  Alcotest.(check int) "all hits after warmup" 0 misses;
  Alcotest.(check bool) "hits counted" true (hits > 0)

let test_bigger_op_costs_more () =
  let c = cache () in
  let mm = Op.Matmul { trans_a = false; trans_b = false } in
  let small = Op_cost.cost c mm [| shape [ 32; 32 ]; shape [ 32; 32 ] |]
      (shape [ 32; 32 ]) in
  let big = Op_cost.cost c mm [| shape [ 256; 256 ]; shape [ 256; 256 ] |]
      (shape [ 256; 256 ]) in
  Alcotest.(check bool) "bigger matmul slower" true (big > small)

let test_utilization_penalty () =
  (* n sequential halves cost more than the whole: the fission tax *)
  let c = cache () in
  let mm = Op.Matmul { trans_a = false; trans_b = false } in
  let whole = Op_cost.cost c mm [| shape [ 128; 64 ]; shape [ 64; 64 ] |]
      (shape [ 128; 64 ]) in
  let half = Op_cost.cost c mm [| shape [ 64; 64 ]; shape [ 64; 64 ] |]
      (shape [ 64; 64 ]) in
  Alcotest.(check bool) "2 x half > whole" true (2.0 *. half > whole)

let test_swap_time () =
  let c = cache () in
  let t = Op_cost.swap_time c 16_000_000_000 in
  (* 16 GB over a 16 GB/s link = 1 second *)
  Alcotest.(check (float 0.01)) "pcie model" 1.0 t

let test_hardware_profiles () =
  Alcotest.(check bool) "desktop faster than mobile" true
    (Hardware.rtx3090.peak_flops > Hardware.mobile.peak_flops);
  Alcotest.(check bool) "default is desktop" true
    (Hardware.default.name = Hardware.rtx3090.name)

let matmul = Op.Matmul { trans_a = false; trans_b = false }

(** Two domains query one new key at once: the first sleeps in the
    [op_cost] fault site between its lookup and its insertion, and the
    second queries the key meanwhile and inserts it.  The cache counts
    one miss (the insertion) and one hit, and so do the metrics. *)
let test_memo_race () =
  let c = cache () in
  let ins = [| shape [ 8; 8 ]; shape [ 8; 8 ] |] and out = shape [ 8; 8 ] in
  let hits = Metrics.counter "op_cost.hits" and misses = Metrics.counter "op_cost.misses" in
  let metrics = Metrics.enabled () in
  Metrics.set_enabled true;
  Fault.arm [ { Fault.site = "op_cost"; at = 1; kind = Fault.Delay 0.5 } ];
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Metrics.set_enabled metrics)
    (fun () ->
      let h0 = Metrics.counter_value hits and m0 = Metrics.counter_value misses in
      let first = Domain.spawn (fun () -> Op_cost.cost c matmul ins out) in
      (* the first query is inside the fault site once it has a visit *)
      while Fault.visits "op_cost" < 1 do
        Domain.cpu_relax ()
      done;
      let second = Op_cost.cost c matmul ins out in
      Alcotest.(check (float 0.0)) "same cost" second (Domain.join first);
      Alcotest.(check (pair int int)) "stats" (1, 1) (Op_cost.stats c);
      Alcotest.(check (pair int int)) "metrics" (1, 1)
        (Metrics.counter_value hits - h0, Metrics.counter_value misses - m0))

(** [node_cost_on] and [cost] key a node alike: on a fresh cache, the
    second of the two queries for a node hits. *)
let test_one_key () =
  let g = mlp_training () in
  let ix = Graph_index.of_graph g in
  Graph.iter
    (fun n ->
      let c = cache () in
      ignore (Op_cost.node_cost_on c ix n.id : float);
      ignore (Op_cost.cost c n.op (Graph_index.in_shapes ix n.id) n.shape : float);
      Alcotest.(check (pair int int)) (Printf.sprintf "node %d" n.id) (1, 1) (Op_cost.stats c))
    g

let suite =
  [
    tc "cost positive and cached" test_cost_positive_and_cached;
    tc "bigger op costs more" test_bigger_op_costs_more;
    tc "utilization penalty" test_utilization_penalty;
    tc "swap time" test_swap_time;
    tc "hardware profiles" test_hardware_profiles;
    tc "a memo race counts one miss" test_memo_race;
    tc "node_cost_on and cost share a key" test_one_key;
  ]
