open Magis
open Helpers
module Int_set = Util.Int_set

let test_dnodes_of_matmul () =
  let b = Builder.create () in
  let x = Builder.input b [ 4; 8 ] ~dtype:Shape.F32 in
  let w = Builder.input b [ 8; 6 ] ~dtype:Shape.F32 in
  let y = Builder.matmul b x w in
  let g = Builder.finish b in
  let dn = Dgraph.dnodes_of g y in
  (* 2 output dims + 1 reduce axis *)
  Alcotest.(check int) "3 dnodes" 3 (List.length dn);
  Alcotest.(check bool) "has reduce dnode" true
    (List.exists (fun (d : Dgraph.dnode) -> d.dim = -1) dn)

let test_matmul_component_structure () =
  let b = Builder.create () in
  let x = Builder.input b [ 4; 8 ] ~dtype:Shape.F32 in
  let w = Builder.input b [ 8; 6 ] ~dtype:Shape.F32 in
  let y = Builder.matmul b x w in
  let g = Builder.finish b in
  let dg = Dgraph.build g in
  let comps = Dgraph.components dg in
  (* three graph-level dimensions: m (x.0-y.0), k (x.1-w.0-y.reduce),
     n (w.1-y.1) *)
  Alcotest.(check int) "3 components" 3 (List.length comps);
  let with_y_out0 =
    List.find
      (fun c -> Dgraph.mem c { Dgraph.node = y; dim = 1 })
      comps
  in
  Alcotest.(check bool) "m component contains x dim 1" true
    (Dgraph.mem with_y_out0 { Dgraph.node = x; dim = 1 });
  let with_reduce =
    List.find
      (fun c -> Dgraph.mem c { Dgraph.node = y; dim = -1 })
      comps
  in
  Alcotest.(check bool) "k component joins both operands" true
    (Dgraph.mem with_reduce { Dgraph.node = x; dim = 2 }
    && Dgraph.mem with_reduce { Dgraph.node = w; dim = 1 })

let test_attention_components () =
  (* the Fig. 4 structure: batch and head dimensions form components that
     span the attention block *)
  let g, x, y = attention () in
  let dg = Dgraph.build g in
  let comps = Dgraph.components dg in
  (* the batch dim of the input should reach the block output *)
  let batch_comp =
    List.find_opt
      (fun c -> Dgraph.mem c { Dgraph.node = x; dim = 1 })
      comps
  in
  (match batch_comp with
  | None -> Alcotest.fail "no batch component"
  | Some c ->
      Alcotest.(check bool) "batch reaches output" true
        (Dgraph.mem c { Dgraph.node = y; dim = 1 }));
  Alcotest.(check bool) "several graph-level dimensions" true
    (List.length comps >= 3)

let test_restrict_unique_assignment () =
  let b = Builder.create () in
  let x = Builder.input b [ 4; 8 ] ~dtype:Shape.F32 in
  let r = Builder.relu b x in
  let t = Builder.tanh_ b r in
  let g = Builder.finish b in
  let dg = Dgraph.build g in
  let comps = Dgraph.components dg in
  let c0 =
    List.find
      (fun c -> Dgraph.mem c { Dgraph.node = x; dim = 1 })
      comps
  in
  match Dgraph.restrict c0 (int_set [ r; t ]) with
  | None -> Alcotest.fail "restrict failed"
  | Some dims ->
      Alcotest.(check (option int)) "r assigned dim 1" (Some 1)
        (Util.Int_map.find_opt r dims);
      Alcotest.(check (option int)) "t assigned dim 1" (Some 1)
        (Util.Int_map.find_opt t dims)

let test_restrict_conflict_on_softmax_axis () =
  (* softmax over [n, n]: both dims of the attention matrix belong to the
     sequence dimension; restrict must refuse (constraint (3)) *)
  let b = Builder.create () in
  let x = Builder.input b [ 8; 16 ] ~dtype:Shape.F32 in
  let wq = Builder.input b [ 16; 16 ] ~dtype:Shape.F32 in
  let wk = Builder.input b [ 16; 16 ] ~dtype:Shape.F32 in
  (* q and k derive from the same input, so both dims of q.k^T belong to
     the same (sequence) dimension component, as in Fig. 4 *)
  let q = Builder.matmul b x wq in
  let k = Builder.matmul b x wk in
  let att = Builder.matmul ~trans_b:true b q k in
  let sm = Builder.softmax b ~axis:1 att in
  let g = Builder.finish b in
  let dg = Dgraph.build g in
  let comps = Dgraph.components dg in
  (* find the component containing both dims of att *)
  let seq =
    List.find_opt
      (fun c ->
        Dgraph.mem c { Dgraph.node = att; dim = 1 }
        && Dgraph.mem c { Dgraph.node = att; dim = 2 })
      comps
  in
  match seq with
  | None -> Alcotest.fail "expected a fused sequence component"
  | Some c ->
      Alcotest.(check bool) "restrict refuses double assignment" true
        (Dgraph.restrict c (int_set [ att; sm ]) = None)

let test_weights_not_in_batch_component () =
  (* Fig. 5: the batch dimension does not run through weight tensors *)
  let g = mlp_training () in
  let x =
    List.find
      (fun v ->
        (Graph.node g v).op = Op.Input Op.Placeholder
        && (Graph.node g v).label = "x")
      (Graph.inputs g)
  in
  let w =
    List.find (fun v -> Op.is_weight (Graph.node g v).op) (Graph.inputs g)
  in
  let dg = Dgraph.build g in
  let comps = Dgraph.components dg in
  let batch =
    List.find
      (fun c -> Dgraph.mem c { Dgraph.node = x; dim = 1 })
      comps
  in
  Alcotest.(check bool) "no weight dnode in batch component" true
    (not (Array.mem w (Dgraph.nodes batch)))

let suite =
  [
    tc "dnodes of matmul" test_dnodes_of_matmul;
    tc "matmul component structure" test_matmul_component_structure;
    tc "attention components (Fig. 4)" test_attention_components;
    tc "restrict unique assignment" test_restrict_unique_assignment;
    tc "restrict conflict on softmax axis" test_restrict_conflict_on_softmax_axis;
    tc "weights outside batch component (Fig. 5)" test_weights_not_in_batch_component;
  ]
