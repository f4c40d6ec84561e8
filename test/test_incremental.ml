open Magis
open Helpers
module Int_set = Util.Int_set

(* a deeper MLP so hot tensors have distant consumers for the swap rule *)
let deep_mlp () =
  let b = Builder.create () in
  let x = Builder.input b [ 256; 32 ] ~dtype:Shape.F32 in
  let h = ref x in
  for _ = 1 to 6 do
    let w = Builder.weight b [ 32; 32 ] ~dtype:Shape.F32 in
    h := Builder.relu b (Builder.dense b !h w)
  done;
  let loss = Builder.sum_loss b !h in
  Autodiff.backward (Builder.finish b) ~loss

let rewrite_one g ~hotspots ~schedule =
  let pos = Hashtbl.create 64 in
  List.iteri (fun i v -> Hashtbl.replace pos v i) schedule;
  let ctx =
    { Rule.default_ctx with hotspots;
      schedule_pos = (fun v -> Hashtbl.find_opt pos v) }
  in
  match Rule.apply Sched_rules.swapping ctx g with
  | rw :: _ -> Some rw
  | [] -> None

let test_incremental_valid () =
  let c = cache () in
  let g = deep_mlp () in
  let schedule = Reorder.schedule ~max_states:0 g in
  let res = Simulator.run c g schedule in
  match rewrite_one g ~hotspots:(Lifetime.hotspots res.analysis) ~schedule with
  | None -> Alcotest.fail "no rewrite available"
  | Some rw ->
      let size_of v = Lifetime.default_size rw.graph v in
      let order, stats =
        Incremental.reschedule ~max_states:20_000 ~parent:(Incremental.parent (Graph_index.of_graph g) schedule)
          ~new_index:(Graph_index.of_graph rw.graph) ~mutated_old:rw.touched_old ~size_of ()
      in
      valid_order_of rw.graph order;
      Alcotest.(check bool) "rescheduled fewer nodes than full" true
        (stats.rescheduled <= Graph.n_nodes rw.graph)

let test_incremental_matches_full_quality () =
  let c = cache () in
  let g = deep_mlp () in
  let schedule = Reorder.schedule ~max_states:2_000 g in
  let res = Simulator.run c g schedule in
  match rewrite_one g ~hotspots:(Lifetime.hotspots res.analysis) ~schedule with
  | None -> Alcotest.fail "no rewrite available"
  | Some rw ->
      let size_of v = Lifetime.default_size rw.graph v in
      let inc, _ =
        Incremental.reschedule ~max_states:2_000
          ~parent:(Incremental.parent (Graph_index.of_graph g) schedule) ~new_index:(Graph_index.of_graph rw.graph)
          ~mutated_old:rw.touched_old ~size_of ()
      in
      let full = Reorder.schedule ~max_states:2_000 rw.graph in
      let p order =
        Lifetime.peak_memory (Lifetime.analyze rw.graph order)
      in
      (* incremental should be close to the full reschedule *)
      Alcotest.(check bool)
        (Printf.sprintf "within 20%% of full (inc %d, full %d)" (p inc) (p full))
        true
        (float_of_int (p inc) <= 1.2 *. float_of_int (p full))

let test_extend_bound_clamps () =
  let g, _, _, _, _ = chain3 () in
  let psi = Array.of_list (Graph.topo_order g) in
  let nw = Partition.nw_on (Graph_index.of_graph g) in
  let lo = Incremental.extend_bound ~nw psi 0 (-1) in
  let hi = Incremental.extend_bound ~nw psi (Array.length psi - 1) 1 in
  Alcotest.(check bool) "bounds in range" true
    (lo >= 0 && hi < Array.length psi)

let test_interval_covers_mutation () =
  let g = mlp_training () in
  let psi = Array.of_list (Graph.topo_order g) in
  let mid = Array.length psi / 2 in
  let nw = Partition.nw_on (Graph_index.of_graph g) in
  let beg, end_ = Incremental.get_reschedule_interval ~nw psi [ mid ] in
  Alcotest.(check bool) "interval contains the mutated position" true
    (beg <= mid && mid < end_)

let test_full_fallback_on_empty_positions () =
  (* when the mutated nodes are not in the old schedule (degenerate), the
     algorithm falls back to full scheduling and still returns a valid
     order *)
  let g = mlp_training () in
  let schedule = Graph.topo_order g in
  let size_of v = Lifetime.default_size g v in
  let order, _ =
    Incremental.reschedule ~max_states:20_000 ~parent:(Incremental.parent (Graph_index.of_graph g) schedule)
      ~new_index:(Graph_index.of_graph g) ~mutated_old:(Int_set.singleton (-42)) ~size_of ()
  in
  valid_order_of g order

let test_sequential_rewrites_stay_valid () =
  (* a search-like trajectory: five swap insertions, each rescheduled
     incrementally on top of the previous schedule *)
  let c = cache () in
  let g = ref (deep_mlp ()) in
  let schedule = ref (Reorder.schedule ~max_states:0 !g) in
  for step = 1 to 5 do
    let res = Simulator.run c !g !schedule in
    match
      rewrite_one !g ~hotspots:(Lifetime.hotspots res.analysis)
        ~schedule:!schedule
    with
    | None -> () (* ran out of targets: fine *)
    | Some rw ->
        let size_of v = Lifetime.default_size rw.graph v in
        let order, _ =
          Incremental.reschedule ~max_states:20_000 ~parent:(Incremental.parent (Graph_index.of_graph !g) !schedule)
            ~new_index:(Graph_index.of_graph rw.graph) ~mutated_old:rw.touched_old ~size_of ()
        in
        Alcotest.(check bool)
          (Printf.sprintf "valid after rewrite %d" step)
          true
          (is_valid_order rw.graph order);
        g := rw.graph;
        schedule := order
  done

let suite =
  [
    tc "incremental produces valid schedule" test_incremental_valid;
    tc "incremental close to full quality" test_incremental_matches_full_quality;
    tc "extend_bound clamps" test_extend_bound_clamps;
    tc "interval covers mutation" test_interval_covers_mutation;
    tc "fallback on unknown positions" test_full_fallback_on_empty_positions;
    tc "sequential rewrites stay valid" test_sequential_rewrites_stay_valid;
  ]
