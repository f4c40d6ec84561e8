open Magis
open Helpers
module Int_set = Util.Int_set
module Int_map = Util.Int_map

let index = Graph_index.of_graph

(** A fission of the MLP training graph along the batch dimension,
    reproducing the paper's Fig. 5. *)
let mlp_batch_fission ?(n = 2) () =
  let g = mlp_training ~batch:8 ~hidden:16 () in
  let x =
    List.find
      (fun v -> (Graph.node g v).op = Op.Input Op.Placeholder
                && (Graph.node g v).label = "x")
      (Graph.inputs g)
  in
  let dg = Dgraph.build g in
  let comp =
    List.find
      (fun c -> Dgraph.mem c { Dgraph.node = x; dim = 1 })
      (Dgraph.components dg)
  in
  let members = Int_set.remove x (Int_set.of_list (Array.to_list (Dgraph.nodes comp))) in
  (* keep only non-input members (weights/seed participate as inputs) *)
  let members =
    Int_set.filter (fun v -> not (Op.is_input (Graph.op g v))) members
  in
  let dims = Option.get (Dgraph.restrict comp members) in
  (g, x, { Fission.members; dims; n })

let test_valid_fission () =
  let g, _, f = mlp_batch_fission () in
  match Fission.validate (index g) f with
  | Ok () -> ()
  | Error e -> Alcotest.failf "expected valid: %s" e

let test_input_roles () =
  let g, x, f = mlp_batch_fission () in
  match Fission.input_roles (index g) f with
  | Error e -> Alcotest.failf "roles: %s" e
  | Ok roles ->
      (* x is sliced along the batch dim; weights are shared *)
      (match Int_map.find_opt x roles with
      | Some (Fission.Sliced 1) -> ()
      | Some (Fission.Sliced d) -> Alcotest.failf "x sliced along %d" d
      | Some Fission.Shared -> Alcotest.fail "x should be sliced"
      | None -> Alcotest.fail "x not an input?");
      Int_map.iter
        (fun u role ->
          if Op.is_weight (Graph.op g u) then
            match role with
            | Fission.Shared -> ()
            | Fission.Sliced _ -> Alcotest.failf "weight %d sliced" u)
        roles

let test_invalid_fissions_rejected () =
  let g, x, f = mlp_batch_fission () in
  (* n that does not divide the batch *)
  Alcotest.(check bool) "n=3 invalid (batch=8)" false
    (Fission.is_valid (index g) (Fission.with_n f 3));
  (* non-convex subset: drop a middle node *)
  let mid =
    Int_set.elements f.members
    |> List.find (fun v ->
           let nd = Graph.node g v in
           (not (Op.is_input nd.op))
           && List.exists (fun u -> Int_set.mem u f.members) (Graph.pre g v)
           && List.exists (fun u -> Int_set.mem u f.members) (Graph.suc g v))
  in
  let broken =
    { f with
      members = Int_set.remove mid f.members;
      dims = Int_map.remove mid f.dims }
  in
  Alcotest.(check bool) "hole in the middle rejected" false
    (Fission.is_valid (index g) (Fission.with_n broken 2));
  ignore x

let test_softmax_axis_split_rejected () =
  let b = Builder.create () in
  let x = Builder.input b [ 8; 16 ] ~dtype:Shape.F32 in
  let sm = Builder.softmax b ~axis:1 x in
  let g = Builder.finish b in
  let f =
    { Fission.members = Int_set.singleton sm;
      dims = Int_map.singleton sm 2;  (* the normalized axis *)
      n = 2 }
  in
  Alcotest.(check bool) "softmax axis rejected" false (Fission.is_valid (index g) f);
  let ok =
    { Fission.members = Int_set.singleton sm;
      dims = Int_map.singleton sm 1;  (* the batch axis *)
      n = 2 }
  in
  Alcotest.(check bool) "batch axis fine" true (Fission.is_valid (index g) ok)

let expansion_ops g =
  Graph.fold (fun n acc -> Op.name n.op :: acc) g []

let test_expand_structure () =
  let g, _, f = mlp_batch_fission ~n:2 () in
  let e = Fission.expand g f in
  let g' = e.graph in
  (* outputs preserved: same number of graph outputs with same shapes *)
  let outs_before = List.length (Graph.outputs g) in
  let outs_after = List.length (Graph.outputs g') in
  Alcotest.(check int) "same number of outputs" outs_before outs_after;
  (* slices and merge nodes appear *)
  let ops = expansion_ops g' in
  Alcotest.(check bool) "has slices" true
    (List.exists (fun o -> String.length o >= 5 && String.sub o 0 5 = "slice") ops);
  (* weight gradients merged by addition (Fig. 5) or concat present *)
  Alcotest.(check bool) "has concat or add merge" true
    (List.exists (fun o -> o = "concat(0)" || o = "add") ops);
  (* both parts materialized *)
  Alcotest.(check int) "two parts" 2 (Array.length e.part_nodes);
  Alcotest.(check bool) "parts non-empty" true
    (Array.for_all (fun l -> l <> []) e.part_nodes)

let test_expand_preserves_output_shapes () =
  let g, _, f = mlp_batch_fission ~n:4 () in
  let e = Fission.expand g f in
  Int_map.iter
    (fun old_id new_id ->
      Alcotest.(check bool)
        (Printf.sprintf "replacement %d->%d shape" old_id new_id)
        true
        (Shape.equal_dims (Graph.shape g old_id) (Graph.shape e.graph new_id)))
    e.replacements

let test_expand_weight_grad_merged_by_add () =
  (* Fig. 5: the weight gradient is assigned the reduce axis, so its
     replacement must be an Add of partial gradients *)
  let g, _, f = mlp_batch_fission ~n:2 () in
  let reduce_assigned =
    Int_map.fold
      (fun v d acc -> if d < 0 then v :: acc else acc)
      f.dims []
  in
  Alcotest.(check bool) "some node carries the reduce axis" true
    (reduce_assigned <> []);
  let e = Fission.expand g f in
  List.iter
    (fun v ->
      if Int_set.mem v (Graph.outs_of g f.members) then
        match Int_map.find_opt v e.replacements with
        | Some repl ->
            Alcotest.(check string) "merged by add" "add"
              (Op.name (Graph.op e.graph repl))
        | None -> Alcotest.fail "reduce-assigned output not replaced")
    reduce_assigned

let test_virtual_accounting_direction () =
  (* the virtual accounting of a fission must (a) reduce peak memory and
     (b) increase latency — the trade the paper describes *)
  let c = cache () in
  let g, _, f = mlp_batch_fission ~n:2 () in
  let order = Graph.topo_order g in
  let base = Simulator.run c g order in
  let t = Ftree.of_fissions [ f ] in
  let acc = Ftree.accounting c (Graph_index.of_graph g) t in
  let virt = Simulator.run ~size_of:acc.size_of ~cost_of:acc.cost_of c g order in
  Alcotest.(check bool) "virtual peak below base" true
    (virt.peak_mem < base.peak_mem);
  Alcotest.(check bool) "virtual latency above base" true
    (virt.latency +. acc.extra_latency > base.latency)

let test_virtual_vs_real_expansion () =
  (* the virtual accounting should approximate the really expanded graph:
     same direction and within a reasonable factor *)
  let c = cache () in
  let g, _, f = mlp_batch_fission ~n:2 () in
  let t = Ftree.of_fissions [ f ] in
  let acc = Ftree.accounting c (Graph_index.of_graph g) t in
  let order = Graph.topo_order g in
  let virt = Simulator.run ~size_of:acc.size_of ~cost_of:acc.cost_of c g order in
  let virt_latency = virt.latency +. acc.extra_latency in
  let e = Fission.expand g f in
  let real_order = Reorder.schedule ~max_states:5_000 e.graph in
  let real = Simulator.run c e.graph real_order in
  let ratio a b = float_of_int a /. float_of_int b in
  Alcotest.(check bool)
    (Printf.sprintf "peak within 40%% (virt %d, real %d)" virt.peak_mem
       real.peak_mem)
    true
    (ratio virt.peak_mem real.peak_mem > 0.6
    && ratio virt.peak_mem real.peak_mem < 1.4);
  Alcotest.(check bool)
    (Printf.sprintf "latency within 40%% (virt %.3g, real %.3g)" virt_latency
       real.latency)
    true
    (virt_latency /. real.latency > 0.6 && virt_latency /. real.latency < 1.4)

let test_deeper_fission_saves_more () =
  let c = cache () in
  let g, _, f = mlp_batch_fission () in
  let order = Graph.topo_order g in
  let peak_at n =
    let t = Ftree.of_fissions [ Fission.with_n f n ] in
    let acc = Ftree.accounting c (Graph_index.of_graph g) t in
    (Simulator.run ~size_of:acc.size_of ~cost_of:acc.cost_of c g order).peak_mem
  in
  Alcotest.(check bool) "n=4 below n=2" true (peak_at 4 < peak_at 2);
  Alcotest.(check bool) "n=8 below n=4" true (peak_at 8 < peak_at 4)

let test_scaled_shapes () =
  let g, _, f = mlp_batch_fission ~n:2 () in
  (* pick a member with a positive assignment *)
  let v, d =
    Int_map.fold
      (fun v d acc -> if d > 0 && not (Op.is_input (Graph.op g v)) then (v, d) else acc)
      f.dims (-1, 0)
  in
  let node = Graph.node g v in
  let whole = (Array.map (Graph.shape g) node.inputs, node.shape) in
  let extent (_, out) = Shape.dim out (d - 1) in
  let half = Fission.scaled_shapes (index g) f v whole in
  Alcotest.(check int) "assigned dim halved" (extent whole / 2) (extent half);
  (* nested entries compose: scaling the scaled shapes halves them again *)
  Alcotest.(check int) "scaling composes" (extent whole / 4)
    (extent (Fission.scaled_shapes (index g) f v half))

(** An input member is split like any other member: its assigned dim
    must exist and its extent must divide by [n], or [expand] would
    slice it with step [extent / n] and drop the remainder. *)
let test_input_member_extent () =
  let b = Builder.create () in
  let x = Builder.input b [ 6; 4 ] ~dtype:Shape.F32 in
  let r = Builder.reduce_sum b ~axes:[ 0 ] x in
  let g = Builder.finish b in
  let f n =
    { Fission.members = Int_set.of_list [ x; r ];
      dims = Int_map.of_seq (List.to_seq [ (x, 1); (r, -1) ]);
      n }
  in
  Alcotest.(check bool) "extent 6 does not split in 4" true
    (Result.is_error (Fission.validate (index g) (f 4)));
  Alcotest.(check bool) "nor does is_valid" false (Fission.is_valid (index g) (f 4));
  Alcotest.(check (option int)) "smallest n" (Some 2) (Ftree.smallest_valid_n g (f 1));
  Alcotest.(check bool) "dim beyond the input's rank" false
    (Fission.is_valid (index g) { (f 2) with dims = Int_map.add x 3 (f 2).dims });
  let e = Fission.expand g (f 2) in
  let env = Magis_exec.Interp.default_env g in
  let before = Magis_exec.Interp.run g ~env and after = Magis_exec.Interp.run e.graph ~env in
  let d =
    Magis_exec.Interp.max_diff (Hashtbl.find before r)
      (Hashtbl.find after (Int_map.find r e.replacements))
  in
  Alcotest.(check bool) (Printf.sprintf "n=2 expansion agrees (max diff %g)" d) true (d < 1e-5)

let suite =
  [
    tc "valid fission (Fig. 5)" test_valid_fission;
    tc "input member extent divides by n" test_input_member_extent;
    tc "input roles" test_input_roles;
    tc "invalid fissions rejected" test_invalid_fissions_rejected;
    tc "softmax axis split rejected" test_softmax_axis_split_rejected;
    tc "expand structure" test_expand_structure;
    tc "expand preserves output shapes" test_expand_preserves_output_shapes;
    tc "weight grads merged by add (Fig. 5)" test_expand_weight_grad_merged_by_add;
    tc "virtual accounting direction" test_virtual_accounting_direction;
    tc "virtual vs real expansion" test_virtual_vs_real_expansion;
    tc "deeper fission saves more" test_deeper_fission_saves_more;
    tc "scaled shapes" test_scaled_shapes;
  ]
