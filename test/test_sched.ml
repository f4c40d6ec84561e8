open Magis
open Helpers
module Int_set = Util.Int_set

let all_members g = Int_set.of_list (Graph.node_ids g)

let test_partition_covers () =
  let g = mlp_training () in
  let members = all_members g in
  let blocks = Partition.partition g members in
  let union =
    List.fold_left Int_set.union Int_set.empty blocks
  in
  Alcotest.(check bool) "blocks cover all members" true
    (Int_set.equal union members);
  (* blocks are disjoint *)
  let total = List.fold_left (fun a b -> a + Int_set.cardinal b) 0 blocks in
  Alcotest.(check int) "disjoint" (Int_set.cardinal members) total

let test_partition_respects_dependencies () =
  let g = mlp_training () in
  let blocks = Partition.partition g (all_members g) in
  (* concatenating block-local topological orders yields a valid global
     order *)
  let order =
    List.concat_map
      (fun b -> List.filter (fun v -> Int_set.mem v b) (Graph.topo_order g))
      blocks
  in
  valid_order_of g order

let test_nw_values () =
  let g, x, l, r, j = diamond () in
  let nw = Partition.nw_table g (Array.of_list (Graph.topo_order g)) in
  (* l and r are independent of each other: nw = 1 *)
  Alcotest.(check int) "nw l" 1 nw.(l);
  Alcotest.(check int) "nw r" 1 nw.(r);
  Alcotest.(check int) "nw x" 0 nw.(x);
  Alcotest.(check int) "nw j" 0 nw.(j);
  (* an array that is not a topological order gives the same table *)
  Alcotest.(check (array int)) "order-independent" nw
    (Partition.nw_table g [| j; x |])

let test_pinned () =
  let g = mlp_training () in
  Graph.iter
    (fun n ->
      if Op.is_weight n.op then
        Alcotest.(check bool) "weight pinned" true (Lifetime.pinned g n.id))
    g;
  let out = List.hd (Graph.outputs g) in
  Alcotest.(check bool) "output pinned" true (Lifetime.pinned g out)

let test_greedy_valid_and_not_worse () =
  let g = mlp_training () in
  let size_of v = Lifetime.default_size g v in
  let order = Reorder.greedy_schedule ~size_of g (all_members g) in
  valid_order_of g order;
  let p_greedy = Lifetime.peak_memory (Lifetime.analyze g order) in
  let p_topo =
    Lifetime.peak_memory (Lifetime.analyze g (Graph.topo_order g))
  in
  Alcotest.(check bool) "greedy not worse than topo" true (p_greedy <= p_topo)

let test_dp_optimal_on_skip_ladder () =
  (* a ladder of independent branches: DP should find the optimal
     interleaving *)
  let b = Builder.create () in
  let x = Builder.input b [ 100 ] ~dtype:Shape.F32 in
  let branches =
    List.init 4 (fun _ ->
        let r = Builder.relu b x in
        Builder.relu b r)
  in
  let j =
    List.fold_left (fun acc v -> Builder.add b acc v) (List.hd branches)
      (List.tl branches)
  in
  let g = Builder.finish b in
  ignore j;
  let size_of v = Lifetime.default_size g v in
  match Reorder.dp_schedule ~max_states:50_000 ~size_of g (all_members g) with
  | None -> Alcotest.fail "DP exceeded budget"
  | Some order ->
      valid_order_of g order;
      let p_dp = Lifetime.peak_memory (Lifetime.analyze g order) in
      let greedy = Reorder.greedy_schedule ~size_of g (all_members g) in
      let p_greedy = Lifetime.peak_memory (Lifetime.analyze g greedy) in
      Alcotest.(check bool) "DP <= greedy" true (p_dp <= p_greedy)

let test_dp_budget_exhaustion () =
  (* a wide independent layer makes the DP state space explode *)
  let b = Builder.create () in
  let x = Builder.input b [ 10 ] ~dtype:Shape.F32 in
  let mids = List.init 12 (fun _ -> Builder.relu b x) in
  let _ =
    List.fold_left (fun acc v -> Builder.add b acc v) (List.hd mids)
      (List.tl mids)
  in
  let g = Builder.finish b in
  let size_of v = Lifetime.default_size g v in
  Alcotest.(check bool) "tiny budget gives up" true
    (Reorder.dp_schedule ~max_states:3 ~size_of g (all_members g) = None)

let test_schedule_beats_topo_on_unet () =
  let g = Zoo.unet.build Zoo.Quick in
  let order = Reorder.schedule ~max_states:4_000 g in
  valid_order_of g order;
  let p_sched = Lifetime.peak_memory (Lifetime.analyze g order) in
  let p_topo = Lifetime.peak_memory (Lifetime.analyze g (Graph.topo_order g)) in
  (* the DP-backed scheduler should not lose much to program order and
     usually wins; the greedy fallback alone may be slightly worse *)
  Alcotest.(check bool)
    (Printf.sprintf "within 5%% of topo (sched %d, topo %d)" p_sched p_topo)
    true
    (float_of_int p_sched <= 1.05 *. float_of_int p_topo)

let test_schedule_members_subset () =
  let g = mlp_training () in
  let order = Graph.topo_order g in
  let members = Int_set.of_list (Util.take 6 order) in
  let size_of v = Lifetime.default_size g v in
  let sub = Reorder.schedule_members ~max_states:0 ~size_of g members in
  check_sorted "schedules exactly the members" (Int_set.elements members) sub

let suite =
  [
    tc "partition covers and is disjoint" test_partition_covers;
    tc "partition respects dependencies" test_partition_respects_dependencies;
    tc "narrow-waist values" test_nw_values;
    tc "pinned nodes" test_pinned;
    tc "greedy valid and not worse than topo" test_greedy_valid_and_not_worse;
    tc "DP optimal on independent branches" test_dp_optimal_on_skip_ladder;
    tc "DP budget exhaustion" test_dp_budget_exhaustion;
    tc "scheduler beats topo order on UNet" test_schedule_beats_topo_on_unet;
    tc "schedule_members covers subset" test_schedule_members_subset;
  ]
