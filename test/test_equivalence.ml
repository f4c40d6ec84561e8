(** Numerical equivalence of graph transformations: the optimized graph
    must compute the same values as the original, checked on the
    reference interpreter ({!Magis_exec.Interp}) with deterministic
    inputs.  This is the strongest soundness evidence for the rewrites:
    shape preservation alone would not catch a mis-sliced fission part or
    a halo off by one row. *)

open Magis
open Helpers
module Interp = Magis_exec.Interp
module Int_map = Util.Int_map
module Int_set = Util.Int_set

let tolerance = 1e-4

(** Shared environment: the same node id gets the same tensor in both
    graphs (transformations keep original input ids). *)
let env_of g = Interp.default_env g

(** Check that [outputs_pairs] (old node, new node) agree between the two
    graphs under a shared input environment. *)
let check_outputs ~msg g g' pairs =
  let env = env_of g in
  let vals = Interp.run g ~env in
  let vals' = Interp.run g' ~env in
  List.iter
    (fun (old_v, new_v) ->
      let a = Hashtbl.find vals old_v in
      let b = Hashtbl.find vals' new_v in
      let d = Interp.max_diff a b in
      Alcotest.(check bool)
        (Printf.sprintf "%s: node %d ~ %d (max diff %.2e)" msg old_v new_v d)
        true (d < tolerance))
    pairs

let identity_pairs g g' =
  List.filter_map
    (fun v -> if Graph.mem g' v then Some (v, v) else None)
    (Graph.outputs g)

(* ------------------------------------------------------------------ *)
(* Fission expansion                                                   *)
(* ------------------------------------------------------------------ *)

let batch_fission_of g ~input_label =
  let x =
    List.find
      (fun v -> (Graph.node g v).label = input_label)
      (Graph.inputs g)
  in
  let dg = Dgraph.build g in
  let comp =
    List.find
      (fun c -> Dgraph.mem c { Dgraph.node = x; dim = 1 })
      (Dgraph.components dg)
  in
  let members =
    Int_set.filter
      (fun v -> not (Op.is_input (Graph.op g v)))
      (Int_set.of_list (Array.to_list (Dgraph.nodes comp)))
  in
  let dims = Option.get (Dgraph.restrict comp members) in
  { Fission.members; dims; n = 2 }

let test_fission_expansion_numeric () =
  (* the Fig. 5 scenario: batch fission of an MLP training step, including
     the weight gradients merged by addition *)
  let g = mlp_training ~batch:8 ~hidden:16 () in
  let f = batch_fission_of g ~input_label:"x" in
  List.iter
    (fun n ->
      let f = Fission.with_n f n in
      if Fission.is_valid (Graph_index.of_graph g) f then begin
        let e = Fission.expand g f in
        let pairs =
          List.map
            (fun v ->
              match Int_map.find_opt v e.replacements with
              | Some r -> (v, r)
              | None -> (v, v))
            (Graph.outputs g)
        in
        check_outputs ~msg:(Printf.sprintf "fission n=%d" n) g e.graph pairs
      end)
    [ 2; 4; 8 ]

let test_fission_attention_numeric () =
  (* batch fission through a full attention block (bmm, softmax, reshape,
     transpose, layer norms) *)
  let g, x, y = attention ~batch:4 ~seq:8 ~hidden:16 ~heads:2 () in
  ignore x;
  let f = batch_fission_of g ~input_label:"x" in
  let f = Fission.with_n f 2 in
  if Fission.is_valid (Graph_index.of_graph g) f then begin
    let e = Fission.expand g f in
    let pairs =
      [ (match Int_map.find_opt y e.replacements with
         | Some r -> (y, r)
         | None -> (y, y)) ]
    in
    check_outputs ~msg:"attention batch fission" g e.graph pairs
  end

(* ------------------------------------------------------------------ *)
(* Spatial (halo) fission                                              *)
(* ------------------------------------------------------------------ *)

let test_spatial_fission_numeric () =
  (* the critical halo-correctness check: a haloed split of a same-conv
     chain must match the unsplit chain *exactly* on every pixel *)
  let b = Builder.create () in
  let x = Builder.input b [ 1; 2; 16; 16 ] ~dtype:Shape.F32 in
  let w1 = Builder.weight b [ 4; 2; 3; 3 ] ~dtype:Shape.F32 in
  let c1 = Builder.conv2d ~padding:1 b x w1 in
  let r1 = Builder.relu b c1 in
  let w2 = Builder.weight b [ 4; 4; 3; 3 ] ~dtype:Shape.F32 in
  let c2 = Builder.conv2d ~padding:1 b r1 w2 in
  let r2 = Builder.tanh_ b c2 in
  let g = Builder.finish b in
  List.iter
    (fun n ->
      let f = { Spatial.chain = [ c1; r1; c2; r2 ]; axis = 2; n } in
      if Spatial.is_valid g f then begin
        let e = Spatial.expand g f in
        check_outputs
          ~msg:(Printf.sprintf "spatial n=%d" n)
          g e.graph
          [ (r2, e.replacement) ]
      end)
    [ 2; 4 ]

let test_spatial_rejects_extent_changing_pool () =
  (* unpadded stride-1 pooling shrinks the extent: such chains must be
     rejected (the bug this numeric suite originally caught) *)
  let b = Builder.create () in
  let x = Builder.input b [ 1; 3; 12; 12 ] ~dtype:Shape.F32 in
  let w = Builder.weight b [ 4; 3; 3; 3 ] ~dtype:Shape.F32 in
  let c = Builder.conv2d ~padding:1 b x w in
  let p = Builder.op b (Op.Pool2d { p_kind = Op.P_avg; kernel = 3; p_stride = 1 }) [ c ] in
  let r = Builder.relu b p in
  let g = Builder.finish b in
  Alcotest.(check bool) "extent-changing pool rejected" false
    (Spatial.is_valid g { Spatial.chain = [ c; p; r ]; axis = 2; n = 2 })

(* ------------------------------------------------------------------ *)
(* Scheduling-based and TASO rewrites                                  *)
(* ------------------------------------------------------------------ *)

let rewrites_of rule g =
  let order = Graph.topo_order g in
  let pos = Hashtbl.create 64 in
  List.iteri (fun i v -> Hashtbl.replace pos v i) order;
  let c = cache () in
  let res = Simulator.run c g order in
  let ctx =
    { Rule.default_ctx with
      hotspots = Lifetime.hotspots res.analysis;
      schedule_pos = (fun v -> Hashtbl.find_opt pos v);
      max_per_rule = 8 }
  in
  Rule.apply rule ctx g

let test_all_rules_numeric () =
  let g = mlp_training ~batch:16 ~hidden:16 () in
  List.iter
    (fun rule ->
      List.iteri
        (fun i (rw : Rule.rewrite) ->
          if i < 3 then
            check_outputs
              ~msg:(Printf.sprintf "%s rewrite %d" rw.rule i)
              g rw.graph (identity_pairs g rw.graph))
        (rewrites_of rule g))
    (Sched_rules.all @ Taso_rules.all)

let test_rules_numeric_on_attention () =
  let g, _, _ = attention ~batch:4 ~seq:8 ~hidden:16 ~heads:2 () in
  List.iter
    (fun rule ->
      List.iteri
        (fun i (rw : Rule.rewrite) ->
          if i < 2 then
            check_outputs
              ~msg:(Printf.sprintf "%s on attention %d" rw.rule i)
              g rw.graph (identity_pairs g rw.graph))
        (rewrites_of rule g))
    (Sched_rules.all @ Taso_rules.all)

let test_qkv_merge_numeric () =
  let b = Builder.create () in
  let x = Builder.input b [ 4; 8 ] ~dtype:Shape.F32 in
  let mk () = Builder.weight b [ 8; 8 ] ~dtype:Shape.F32 in
  let q = Builder.dense b x (mk ()) in
  let k = Builder.dense b x (mk ()) in
  let v = Builder.dense b x (mk ()) in
  let out = Builder.add b (Builder.add b q k) v in
  ignore out;
  let g = Builder.finish b in
  List.iter
    (fun (rw : Rule.rewrite) ->
      check_outputs ~msg:"qkv merge" g rw.graph (identity_pairs g rw.graph))
    (rewrites_of Taso_rules.merge_parallel g)

(* ------------------------------------------------------------------ *)
(* Interpreter self-checks                                             *)
(* ------------------------------------------------------------------ *)

let test_interp_known_values () =
  (* 2x2 matmul with hand-computed result *)
  let b = Builder.create () in
  let a = Builder.input b [ 2; 2 ] ~dtype:Shape.F32 in
  let w = Builder.input b [ 2; 2 ] ~dtype:Shape.F32 in
  let m = Builder.matmul b a w in
  let g = Builder.finish b in
  let env v =
    if v = a then { Interp.shape = shape [ 2; 2 ]; data = [| 1.; 2.; 3.; 4. |] }
    else { Interp.shape = shape [ 2; 2 ]; data = [| 5.; 6.; 7.; 8. |] }
  in
  let vals = Interp.run g ~env in
  Alcotest.(check (array (float 1e-9))) "matmul values"
    [| 19.; 22.; 43.; 50. |]
    (Hashtbl.find vals m).data

let test_interp_softmax_rows_sum_to_one () =
  let b = Builder.create () in
  let x = Builder.input b [ 3; 5 ] ~dtype:Shape.F32 in
  let s = Builder.softmax b ~axis:1 x in
  let g = Builder.finish b in
  let vals = Interp.run g ~env:(Interp.default_env g) in
  let t = Hashtbl.find vals s in
  for row = 0 to 2 do
    let sum = ref 0.0 in
    for j = 0 to 4 do
      sum := !sum +. t.data.((row * 5) + j)
    done;
    Alcotest.(check (float 1e-6)) "row sums to 1" 1.0 !sum
  done

let test_interp_conv_identity_kernel () =
  (* a 1x1 identity kernel reproduces the input *)
  let b = Builder.create () in
  let x = Builder.input b [ 1; 1; 4; 4 ] ~dtype:Shape.F32 in
  let w = Builder.input b [ 1; 1; 1; 1 ] ~dtype:Shape.F32 in
  let c = Builder.conv2d b x w in
  let g = Builder.finish b in
  let env v =
    if v = w then { Interp.shape = shape [ 1; 1; 1; 1 ]; data = [| 1.0 |] }
    else Interp.random ~seed:3 (shape [ 1; 1; 4; 4 ])
  in
  let vals = Interp.run g ~env in
  Alcotest.(check (float 1e-9)) "identity conv" 0.0
    (Interp.max_diff (Hashtbl.find vals x) (Hashtbl.find vals c))

let test_expansion_then_rules_numeric () =
  (* transformations compose: fission expansion followed by a swap rewrite
     still computes the original values *)
  let g = mlp_training ~batch:8 ~hidden:16 () in
  let f = batch_fission_of g ~input_label:"x" in
  let e = Fission.expand g (Fission.with_n f 2) in
  let g' = e.graph in
  List.iteri
    (fun i (rw : Rule.rewrite) ->
      if i < 2 then begin
        let env = env_of g in
        let vals = Interp.run g ~env in
        let vals' = Interp.run rw.graph ~env in
        List.iter
          (fun old_out ->
            let new_out =
              match Int_map.find_opt old_out e.replacements with
              | Some r -> r
              | None -> old_out
            in
            if Graph.mem rw.graph new_out then
              let d =
                Interp.max_diff (Hashtbl.find vals old_out)
                  (Hashtbl.find vals' new_out)
              in
              Alcotest.(check bool)
                (Printf.sprintf "composed output %d (diff %.2e)" old_out d)
                true (d < tolerance))
          (Graph.outputs g)
      end)
    (rewrites_of Sched_rules.swapping g')

let prop_spatial_random_configs =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"spatial fission exact on random configs"
       ~count:20
       QCheck2.Gen.(pair (int_range 0 1000) (int_range 1 3))
       (fun (seed, depth) ->
         let st = Random.State.make [| seed |] in
         let image = 8 * (1 + Random.State.int st 3) in
         let ch = 1 + Random.State.int st 3 in
         let b = Builder.create () in
         let x = Builder.input b [ 1; ch; image; image ] ~dtype:Shape.F32 in
         let h = ref x and c = ref ch in
         let chain = ref [] in
         for _ = 1 to depth do
           let oc = 1 + Random.State.int st 3 in
           let w = Builder.weight b [ oc; !c; 3; 3 ] ~dtype:Shape.F32 in
           let conv = Builder.conv2d ~padding:1 b !h w in
           let act = Builder.relu b conv in
           chain := act :: conv :: !chain;
           h := act;
           c := oc
         done;
         let g = Builder.finish b in
         let chain = List.rev !chain in
         let f = { Spatial.chain; axis = 2; n = 2 } in
         if not (Spatial.is_valid g f) then true
         else begin
           let e = Spatial.expand g f in
           let env = Interp.default_env g in
           let a = Interp.run g ~env in
           let b' = Interp.run e.graph ~env in
           let last = List.nth chain (List.length chain - 1) in
           Interp.max_diff (Hashtbl.find a last)
             (Hashtbl.find b' e.replacement)
           < 1e-4
         end))

let suite =
  [
    prop_spatial_random_configs;
    tc "expansion + swap compose" test_expansion_then_rules_numeric;
    tc "fission expansion (Fig. 5) matches numerically" test_fission_expansion_numeric;
    tc "attention batch fission matches" test_fission_attention_numeric;
    tc "spatial halo fission matches exactly" test_spatial_fission_numeric;
    tc "spatial rejects extent-changing pool" test_spatial_rejects_extent_changing_pool;
    tc "all rules preserve values (MLP)" test_all_rules_numeric;
    tc "all rules preserve values (attention)" test_rules_numeric_on_attention;
    tc "QKV merge preserves values" test_qkv_merge_numeric;
    tc "interpreter: known matmul" test_interp_known_values;
    tc "interpreter: softmax normalizes" test_interp_softmax_rows_sum_to_one;
    tc "interpreter: identity conv" test_interp_conv_identity_kernel;
  ]
