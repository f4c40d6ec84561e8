open Magis
open Helpers
module Int_set = Util.Int_set

(* the paper's §2.3 example: k long skip connections alive at once *)
let skip_ladder k size =
  let b = Builder.create () in
  let x = Builder.input b [ size ] ~dtype:Shape.F32 in
  let mids = List.init k (fun _ -> Builder.relu b x) in
  let out =
    List.fold_left (fun acc m -> Builder.add b acc m) (List.hd mids)
      (List.tl mids)
  in
  (Builder.finish b, x, mids, out)

let test_chain_peak () =
  let g, _, _, _, _ = chain3 ~n:16 () in
  let a = Lifetime.analyze g (Graph.topo_order g) in
  (* along a unary chain, at most producer+consumer are live: 2 tensors,
     except the final output which is pinned *)
  Alcotest.(check int) "peak = 2 tensors" (2 * 16 * 4) (Lifetime.peak_memory a)

let test_skip_ladder_peak () =
  let k = 8 and size = 10 in
  let g, _, _, _ = skip_ladder k size in
  let a = Lifetime.analyze g (Graph.topo_order g) in
  (* all k branch tensors plus the input are alive simultaneously *)
  Alcotest.(check bool) "at least k tensors alive" true
    (Lifetime.peak_memory a >= k * size * 4)

let test_weights_pinned () =
  let g = mlp_training ~batch:2 ~hidden:4 () in
  let order = Graph.topo_order g in
  let a = Lifetime.analyze g order in
  (* the weights are alive at every step: the timeline never goes below
     their size *)
  let wbytes = Graph.weight_bytes g in
  Array.iteri
    (fun i m ->
      if i > 0 then
        Alcotest.(check bool) "timeline >= weights" true (m >= wbytes))
    (Lifetime.timeline a)

let test_outputs_pinned () =
  let g, _, _, _, j = diamond () in
  let order = Graph.topo_order g in
  let a = Lifetime.analyze g order in
  let tl = Lifetime.timeline a in
  (* the join's output is alive at the last step *)
  Alcotest.(check bool) "output alive at end" true
    (tl.(Array.length tl - 1) >= Shape.size_bytes (Graph.shape g j))

let test_hotspots_contain_peak_tensors () =
  let g, x, mids, _ = skip_ladder 6 32 in
  let a = Lifetime.analyze g (Graph.topo_order g) in
  let h = Lifetime.hotspots a in
  (* the skip tensors are the hot-spots *)
  List.iter
    (fun m ->
      Alcotest.(check bool) (Printf.sprintf "branch %d hot" m) true
        (Int_set.mem m h))
    mids;
  ignore x

let test_store_output_not_device () =
  let b = Builder.create () in
  let x = Builder.input b [ 1024 ] ~dtype:Shape.F32 in
  let r = Builder.relu b x in
  let st = Builder.op b Op.Store [ r ] in
  let ld = Builder.op b Op.Load [ st ] in
  let out = Builder.relu b ld in
  let g = Builder.finish b in
  Alcotest.(check int) "store occupies no device memory" 0
    (Lifetime.default_size g st);
  Alcotest.(check bool) "load occupies device memory" true
    (Lifetime.default_size g ld > 0);
  ignore out

let test_schedule_order_changes_peak () =
  (* two independent heavy branches: scheduling them one after the other
     beats interleaving *)
  let b = Builder.create () in
  let x = Builder.input b [ 1000 ] ~dtype:Shape.F32 in
  let a1 = Builder.relu b x in
  let a2 = Builder.relu b a1 in
  let b1 = Builder.tanh_ b x in
  let b2 = Builder.tanh_ b b1 in
  let j = Builder.add b a2 b2 in
  let g = Builder.finish b in
  let seq = [ x; a1; a2; b1; b2; j ] in
  let inter = [ x; a1; b1; a2; b2; j ] in
  let p_seq = Lifetime.peak_memory (Lifetime.analyze g seq) in
  let p_inter = Lifetime.peak_memory (Lifetime.analyze g inter) in
  Alcotest.(check bool) "sequential <= interleaved" true (p_seq <= p_inter)

let test_size_override () =
  let g, _, _, _, _ = chain3 ~n:100 () in
  let order = Graph.topo_order g in
  let full = Lifetime.peak_memory (Lifetime.analyze g order) in
  let halved =
    Lifetime.peak_memory
      (Lifetime.analyze ~size_of:(fun v -> Lifetime.default_size g v / 2) g order)
  in
  Alcotest.(check int) "half sizes half peak" (full / 2) halved

let test_interval () =
  let g, x, r1, _, _ = chain3 () in
  let order = Graph.topo_order g in
  let a = Lifetime.analyze g order in
  let pos_x = Option.get (Lifetime.position a x) in
  let birth, free = Lifetime.interval a pos_x in
  Alcotest.(check bool) "input born at its step" true (birth <= pos_x);
  Alcotest.(check bool) "freed after r1 runs" true
    (free >= Option.get (Lifetime.position a r1))

(** [position] is [None] for an id the schedule does not hold: a node
    left out of a partial schedule, an id below the bound that is no
    longer a node, and ids outside the bound on either side. *)
let test_position_absent () =
  let g, x, r1, r2, r3 = chain3 () in
  let g = Graph.remove g r3 in
  let a = Lifetime.analyze g [ x; r1 ] in
  Alcotest.(check (option int)) "scheduled" (Some 1) (Lifetime.position a r1);
  Alcotest.(check (option int)) "node outside the schedule" None (Lifetime.position a r2);
  Alcotest.(check (option int)) "removed id" None (Lifetime.position a r3);
  List.iter
    (fun v -> Alcotest.(check (option int)) (Printf.sprintf "id %d" v) None (Lifetime.position a v))
    [ -1; Graph.id_bound g; Graph.id_bound g + 7 ]

let suite =
  [
    tc "chain peak" test_chain_peak;
    tc "skip ladder peak" test_skip_ladder_peak;
    tc "weights pinned" test_weights_pinned;
    tc "outputs pinned" test_outputs_pinned;
    tc "hotspots at peak" test_hotspots_contain_peak_tensors;
    tc "store output is host-side" test_store_output_not_device;
    tc "order changes peak" test_schedule_order_changes_peak;
    tc "size override" test_size_override;
    tc "lifetime intervals" test_interval;
    tc "position of an absent id" test_position_absent;
  ]
