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
  let nw = Partition.nw_on (Graph_index.of_graph g) in
  (* l and r are independent of each other: nw = 1 *)
  Alcotest.(check int) "nw l" 1 nw.(l);
  Alcotest.(check int) "nw r" 1 nw.(r);
  Alcotest.(check int) "nw x" 0 nw.(x);
  Alcotest.(check int) "nw j" 0 nw.(j)

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
  let sub =
    Reorder.schedule_members ~max_states:0 ~size_of (Graph_index.of_graph g)
      (Array.of_list (Int_set.elements members))
  in
  check_sorted "schedules exactly the members" (Int_set.elements members) sub

(* ------------------------------------------------------------------ *)
(* Exhaustive schedule oracle                                          *)
(* ------------------------------------------------------------------ *)

(** A tiny irregular DAG in the style of the randomly wired networks of
    Zhong et al. ("Memory-aware Scheduling for Complex Wired Networks"):
    one or two inputs and an optional weight of 16, 64 or 256 floats,
    then relu, tanh and add nodes, each reading random earlier nodes (an
    add reads two of one shape), up to 10 nodes in all. *)
let tiny_dag seed =
  let rng = Random.State.make [| seed |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let g = ref Graph.empty and ids = ref [||] in
  let push (g', v) =
    g := g';
    ids := Array.append !ids [| v |]
  in
  let tensor () = Shape.create [ pick [| 16; 64; 256 |] ] in
  for _ = 1 to 1 + Random.State.int rng 2 do
    push (Graph.add_input !g Op.Placeholder (tensor ()))
  done;
  if Random.State.bool rng then push (Graph.add_input !g Op.Weight (tensor ()));
  let n = Array.length !ids + 2 + Random.State.int rng (9 - Array.length !ids) in
  while Array.length !ids < n do
    let a = pick !ids in
    let same = List.filter (fun b -> b <> a && Shape.equal (Graph.shape !g a) (Graph.shape !g b))
        (Array.to_list !ids) in
    match Random.State.int rng 3, same with
    | 2, _ :: _ -> push (Graph.add !g (Op.Binary Op.Add) [ a; pick (Array.of_list same) ])
    | k, _ -> push (Graph.add !g (Op.Unary (if k = 0 then Op.Relu else Op.Tanh)) [ a ])
  done;
  !g

(** The smallest {!Lifetime} peak over every topological order of [g],
    and the number of orders. *)
let min_peak g =
  let best = ref max_int and orders = ref 0 in
  let ready_after placed v =
    List.filter (fun c -> List.for_all (fun p -> Int_set.mem p placed) (Graph.pre g c)) (Graph.suc g v)
  in
  let rec go placed ready rev_order =
    if ready = [] then begin
      incr orders;
      best := min !best (Lifetime.peak_memory (Lifetime.analyze g (List.rev rev_order)))
    end
    else
      List.iter
        (fun v ->
          let placed = Int_set.add v placed in
          go placed (List.filter (( <> ) v) ready @ ready_after placed v) (v :: rev_order))
        ready
  in
  go Int_set.empty (Graph.inputs g) [];
  (!best, !orders)

(** Uncapped {!Reorder.dp_schedule} reaches the exact minimum peak over
    all topological orders of 216 tiny irregular DAGs, and greedy never
    goes below it.  Prints how often greedy is above the minimum; the
    oracle must catch greedy there at least once, or it shows nothing. *)
let test_dp_exhaustive () =
  let graphs = 216 and greedy_above = ref 0 and total_orders = ref 0 in
  for seed = 0 to graphs - 1 do
    let g = tiny_dag seed in
    let size_of v = Lifetime.default_size g v in
    let peak order = Lifetime.peak_memory (Lifetime.analyze g order) in
    let best, orders = min_peak g in
    total_orders := !total_orders + orders;
    (match Reorder.dp_schedule ~max_states:max_int ~size_of g (all_members g) with
    | None -> Alcotest.failf "graph %d: uncapped DP gave up" seed
    | Some order ->
        if not (is_valid_order g order) then Alcotest.failf "graph %d: DP order invalid" seed;
        if peak order <> best then
          Alcotest.failf "graph %d: DP peak %d, minimum %d" seed (peak order) best);
    let greedy = peak (Reorder.greedy_schedule ~size_of g (all_members g)) in
    if greedy < best then Alcotest.failf "graph %d: greedy %d below the minimum %d" seed greedy best;
    if greedy > best then incr greedy_above
  done;
  Printf.printf "exhaustive oracle: %d graphs, %d orders, greedy above the minimum on %d\n"
    graphs !total_orders !greedy_above;
  Alcotest.(check bool) "greedy misses the minimum somewhere" true (!greedy_above > 0)

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
    tc "DP reaches the exhaustive minimum on tiny irregular DAGs" test_dp_exhaustive;
  ]
