open Magis
open Helpers

let infer_ok op ins =
  match Op.infer op (Array.of_list ins) with
  | Ok s -> s
  | Error e -> Alcotest.failf "infer %s failed: %s" (Op.name op) e

let infer_err op ins =
  match Op.infer op (Array.of_list ins) with
  | Ok _ -> Alcotest.failf "infer %s unexpectedly succeeded" (Op.name op)
  | Error _ -> ()

let test_matmul_infer () =
  let s = infer_ok (Op.Matmul { trans_a = false; trans_b = false })
      [ shape [ 3; 4 ]; shape [ 4; 5 ] ] in
  Alcotest.(check (list int)) "m,n" [ 3; 5 ] (Array.to_list (Shape.dims s));
  let s = infer_ok (Op.Matmul { trans_a = true; trans_b = false })
      [ shape [ 4; 3 ]; shape [ 4; 5 ] ] in
  Alcotest.(check (list int)) "trans_a" [ 3; 5 ] (Array.to_list (Shape.dims s));
  let s = infer_ok (Op.Matmul { trans_a = false; trans_b = true })
      [ shape [ 3; 4 ]; shape [ 5; 4 ] ] in
  Alcotest.(check (list int)) "trans_b" [ 3; 5 ] (Array.to_list (Shape.dims s));
  infer_err (Op.Matmul { trans_a = false; trans_b = false })
    [ shape [ 3; 4 ]; shape [ 5; 5 ] ]

let test_dense_infer () =
  let s = infer_ok (Op.Dense { trans_w = false })
      [ shape [ 2; 7; 4 ]; shape [ 4; 9 ] ] in
  Alcotest.(check (list int)) "dense keeps leading dims" [ 2; 7; 9 ]
    (Array.to_list (Shape.dims s));
  let s = infer_ok (Op.Dense { trans_w = true })
      [ shape [ 2; 7; 4 ]; shape [ 9; 4 ] ] in
  Alcotest.(check (list int)) "dense_tw" [ 2; 7; 9 ] (Array.to_list (Shape.dims s));
  infer_err (Op.Dense { trans_w = false }) [ shape [ 2; 7; 4 ]; shape [ 5; 9 ] ];
  let s = infer_ok Op.Dense_bwd_weight [ shape [ 2; 7; 4 ]; shape [ 2; 7; 9 ] ] in
  Alcotest.(check (list int)) "dense_bwd_weight" [ 4; 9 ] (Array.to_list (Shape.dims s))

let test_bmm_infer () =
  let s = infer_ok (Op.Batch_matmul { trans_a = false; trans_b = true })
      [ shape [ 2; 3; 8; 16 ]; shape [ 2; 3; 8; 16 ] ] in
  Alcotest.(check (list int)) "qk^t" [ 2; 3; 8; 8 ] (Array.to_list (Shape.dims s));
  infer_err (Op.Batch_matmul { trans_a = false; trans_b = false })
    [ shape [ 2; 3; 8; 16 ]; shape [ 2; 4; 16; 8 ] ]

let test_conv_infer () =
  let s = infer_ok (Op.Conv2d { stride = 2; padding = 3 })
      [ shape [ 8; 3; 224; 224 ]; shape [ 64; 3; 7; 7 ] ] in
  Alcotest.(check (list int)) "resnet stem" [ 8; 64; 112; 112 ]
    (Array.to_list (Shape.dims s));
  let s = infer_ok (Op.Conv2d { stride = 1; padding = 1 })
      [ shape [ 8; 16; 32; 32 ]; shape [ 16; 16; 3; 3 ] ] in
  Alcotest.(check (list int)) "same conv" [ 8; 16; 32; 32 ]
    (Array.to_list (Shape.dims s));
  infer_err (Op.Conv2d { stride = 1; padding = 0 })
    [ shape [ 8; 3; 8; 8 ]; shape [ 4; 5; 3; 3 ] ];
  (* a window larger than its input is empty at every stride *)
  List.iter
    (fun stride ->
      infer_err (Op.Conv2d { stride; padding = 0 })
        [ shape [ 1; 3; 2; 2 ]; shape [ 4; 3; 3; 3 ] ];
      infer_err (Op.Pool2d { p_kind = Op.P_max; kernel = 3; p_stride = stride })
        [ shape [ 1; 3; 2; 2 ] ])
    [ 1; 2 ]

let test_conv_bwd_data_shape_carrier () =
  (* a strided conv floors away the extent; the 3-operand form recovers it *)
  let x = shape [ 8; 16; 5; 5 ] in
  let w = shape [ 32; 16; 3; 3 ] in
  let dy = infer_ok (Op.Conv2d { stride = 2; padding = 1 }) [ x; w ] in
  Alcotest.(check (list int)) "fwd" [ 8; 32; 3; 3 ] (Array.to_list (Shape.dims dy));
  let dx = infer_ok (Op.Conv2d_bwd_data { stride = 2; padding = 1 }) [ dy; w; x ] in
  Alcotest.(check bool) "dx = x shape" true (Shape.equal_dims dx x)

let test_deconv_infer () =
  (* two-operand conv_bwd_data = transposed convolution upsampling *)
  let s = infer_ok (Op.Conv2d_bwd_data { stride = 2; padding = 0 })
      [ shape [ 4; 64; 16; 16 ]; shape [ 64; 32; 2; 2 ] ] in
  Alcotest.(check (list int)) "2x upsample" [ 4; 32; 32; 32 ]
    (Array.to_list (Shape.dims s))

let test_elementwise_infer () =
  let a = shape [ 4; 4 ] in
  let s = infer_ok (Op.Binary Op.Add) [ a; a ] in
  Alcotest.(check bool) "add" true (Shape.equal_dims a s);
  infer_err (Op.Binary Op.Add) [ a; shape [ 4; 5 ] ];
  let s = infer_ok (Op.Unary Op.Relu) [ a ] in
  Alcotest.(check bool) "relu" true (Shape.equal_dims a s);
  let s = infer_ok (Op.Bias_add 1) [ a; shape [ 4 ] ] in
  Alcotest.(check bool) "bias_add" true (Shape.equal_dims a s);
  infer_err (Op.Bias_add 1) [ a; shape [ 5 ] ]

let test_reduce_broadcast_roundtrip () =
  let a = shape [ 4; 6; 8 ] in
  let r = infer_ok (Op.Reduce (Op.R_sum, [ 1 ])) [ a ] in
  Alcotest.(check (list int)) "reduce" [ 4; 8 ] (Array.to_list (Shape.dims r));
  let b = infer_ok (Op.Broadcast { dims = [| 4; 6; 8 |]; axes = [ 1 ] }) [ r ] in
  Alcotest.(check bool) "broadcast back" true (Shape.equal_dims a b);
  let full = infer_ok (Op.Reduce (Op.R_sum, [ 0; 1; 2 ])) [ a ] in
  Alcotest.(check (list int)) "full reduce keeps [1]" [ 1 ]
    (Array.to_list (Shape.dims full))

let test_structural_ops () =
  let a = shape [ 2; 3; 4 ] in
  let t = infer_ok (Op.Transpose [| 2; 0; 1 |]) [ a ] in
  Alcotest.(check (list int)) "transpose" [ 4; 2; 3 ] (Array.to_list (Shape.dims t));
  infer_err (Op.Transpose [| 0; 0; 1 |]) [ a ];
  let r = infer_ok (Op.Reshape [| 6; 4 |]) [ a ] in
  Alcotest.(check (list int)) "reshape" [ 6; 4 ] (Array.to_list (Shape.dims r));
  infer_err (Op.Reshape [| 5; 5 |]) [ a ];
  let s = infer_ok (Op.Slice { axis = 1; lo = 1; hi = 3 }) [ a ] in
  Alcotest.(check (list int)) "slice" [ 2; 2; 4 ] (Array.to_list (Shape.dims s));
  infer_err (Op.Slice { axis = 1; lo = 2; hi = 2 }) [ a ];
  let c = infer_ok (Op.Concat 1) [ a; a; a ] in
  Alcotest.(check (list int)) "concat" [ 2; 9; 4 ] (Array.to_list (Shape.dims c))

let test_embedding_infer () =
  let table = shape [ 100; 8 ] in
  let ids = Shape.create ~dtype:Shape.I64 [ 4; 10 ] in
  let e = infer_ok Op.Embedding [ table; ids ] in
  Alcotest.(check (list int)) "embedding" [ 4; 10; 8 ] (Array.to_list (Shape.dims e));
  let d = infer_ok Op.Embedding_bwd [ e; ids; table ] in
  Alcotest.(check bool) "embedding_bwd" true (Shape.equal_dims d table)

let test_flops_monotone () =
  (* splitting a matmul along m halves its flops *)
  let full = Op.flops (Op.Matmul { trans_a = false; trans_b = false })
      [| shape [ 8; 4 ]; shape [ 4; 6 ] |] (shape [ 8; 6 ]) in
  let half = Op.flops (Op.Matmul { trans_a = false; trans_b = false })
      [| shape [ 4; 4 ]; shape [ 4; 6 ] |] (shape [ 4; 6 ]) in
  Alcotest.(check (float 1e-9)) "half the flops" (full /. 2.0) half;
  Alcotest.(check (float 1e-9)) "matmul flops" (2.0 *. 8.0 *. 6.0 *. 4.0) full

let test_view_and_swap_predicates () =
  Alcotest.(check bool) "transpose is view" true (Op.is_view (Op.Transpose [| 0 |]));
  Alcotest.(check bool) "store is swap" true (Op.is_swap Op.Store);
  Alcotest.(check bool) "load is swap" true (Op.is_swap Op.Load);
  Alcotest.(check bool) "matmul is neither" false
    (Op.is_view (Op.Matmul { trans_a = false; trans_b = false })
    || Op.is_swap (Op.Matmul { trans_a = false; trans_b = false }));
  Alcotest.(check bool) "weight" true (Op.is_weight (Op.Input Op.Weight));
  Alcotest.(check bool) "placeholder is input" true (Op.is_input (Op.Input Op.Placeholder))

let test_dim_links_matmul () =
  let ins = [| shape [ 3; 4 ]; shape [ 4; 5 ] |] in
  let out = shape [ 3; 5 ] in
  let links = Op.links (Op.Matmul { trans_a = false; trans_b = false }) ins out in
  Alcotest.(check int) "4 links" 4 (List.length links);
  Alcotest.(check bool) "a.m -> out0" true
    (List.mem (0, 0, Op.To_out 0) links);
  Alcotest.(check bool) "a.k -> reduce0" true
    (List.mem (0, 1, Op.To_reduce 0) links);
  Alcotest.(check bool) "b.k -> reduce0" true
    (List.mem (1, 0, Op.To_reduce 0) links);
  Alcotest.(check bool) "b.n -> out1" true (List.mem (1, 1, Op.To_out 1) links)

let test_dim_links_dense_bwd_weight () =
  (* leading dims of x and dy are reduce axes (the Fig. 5 pattern) *)
  let ins = [| shape [ 8; 16; 4 ]; shape [ 8; 16; 6 ] |] in
  let out = shape [ 4; 6 ] in
  let links = Op.links Op.Dense_bwd_weight ins out in
  Alcotest.(check bool) "x batch -> reduce0" true
    (List.mem (0, 0, Op.To_reduce 0) links);
  Alcotest.(check bool) "x seq -> reduce1" true
    (List.mem (0, 1, Op.To_reduce 1) links);
  Alcotest.(check bool) "x last -> out0" true (List.mem (0, 2, Op.To_out 0) links);
  Alcotest.(check bool) "dy last -> out1" true (List.mem (1, 2, Op.To_out 1) links);
  Alcotest.(check int) "reduce arity" 2
    (Op.reduce_arity Op.Dense_bwd_weight ins)

let test_unsplittable_dims () =
  let x = shape [ 4; 8 ] in
  Alcotest.(check (list int)) "softmax axis" [ 1 ]
    (Op.unsplittable_out_dims (Op.Softmax 1) [| x |] x);
  let nchw = shape [ 2; 3; 8; 8 ] in
  Alcotest.(check (list int)) "conv window dims" [ 2; 3 ]
    (Op.unsplittable_out_dims (Op.Conv2d { stride = 1; padding = 1 })
       [| nchw; shape [ 3; 3; 3; 3 ] |] nchw);
  Alcotest.(check (list int)) "layer_norm trailing" [ 1 ]
    (Op.unsplittable_out_dims (Op.Layer_norm 1) [| x; shape [ 8 ]; shape [ 8 ] |] x)

let test_reduce_merge () =
  Alcotest.(check bool) "matmul sums" true
    (Op.reduce_merge (Op.Matmul { trans_a = false; trans_b = false }) = `Sum);
  Alcotest.(check bool) "reduce max merges with max" true
    (Op.reduce_merge (Op.Reduce (Op.R_max, [ 0 ])) = `Max);
  Alcotest.(check bool) "mean cannot merge" true
    (Op.reduce_merge (Op.Reduce (Op.R_mean, [ 0 ])) = `No_merge);
  Alcotest.(check bool) "relu has no reduce" true
    (Op.reduce_merge (Op.Unary Op.Relu) = `No_merge)

let test_reshape_links_prefix_suffix () =
  (* [B,T,C] -> [B,T,H,h]: B and T stay linked, C is opaque *)
  let ins = [| shape [ 4; 8; 6 ] |] in
  let out = shape [ 4; 8; 2; 3 ] in
  let links = Op.links (Op.Reshape [| 4; 8; 2; 3 |]) ins out in
  Alcotest.(check bool) "B linked" true (List.mem (0, 0, Op.To_out 0) links);
  Alcotest.(check bool) "T linked" true (List.mem (0, 1, Op.To_out 1) links);
  Alcotest.(check bool) "C not linked" false
    (List.exists (fun (_, d, _) -> d = 2) links)

(* ---- Op.infer against the symbolic interpreter (Op.Abstract over
   Symshape) on constant extents ---- *)

module Sym = (val Symshape.dim_domain [] : Symshape.DOMAIN)
module A = Op.Abstract (Sym)

let to_symbolic s =
  (Array.map Symshape.const (Shape.dims s), Rule.Spec.Dt_const (Shape.dtype s))

(* On constant extents the symbolic domain decides every fact except a
   quotient that is not exact (a non-dividing conv/pool stride), which it
   refuses to name. *)
let strided = function
  | Op.Conv2d { stride; _ } -> stride > 1
  | Op.Pool2d { p_stride; _ } -> p_stride > 1
  | _ -> false

(** Compare {!Op.infer} with the symbolic interpreter the rule-soundness
    checker runs: whenever it proves a shape, [Op.infer] must compute the
    same one; it must never prove what [Op.infer] rejects; and it may
    fail to prove only a strided extent.  [None] on agreement, else the
    disagreement. *)
let disagreement op ins =
  let reject f = try f () with Invalid_argument e -> Error e in
  let concrete = reject (fun () -> Op.infer op ins) in
  match (concrete, reject (fun () -> A.infer op (Array.map to_symbolic ins))) with
  | Ok s, Ok (dims, dt) ->
      let dims = Array.map Symshape.to_const dims in
      if
        dims = Array.map Option.some (Shape.dims s)
        && dt = Rule.Spec.Dt_const (Shape.dtype s)
      then None
      else Some (Printf.sprintf "%s: symbolic result differs from %s" (Op.name op)
                   (Shape.to_string s))
  | Error _, Error _ -> None
  | Ok _, Error e ->
      if strided op then None
      else Some (Printf.sprintf "%s: concrete Ok but symbolic cannot prove: %s"
                   (Op.name op) e)
  | Error e, Ok _ ->
      Some (Printf.sprintf "%s: symbolic proved what concrete rejects (%s)"
              (Op.name op) e)

let agree op ins =
  match disagreement op (Array.of_list ins) with
  | None -> ()
  | Some why -> Alcotest.fail why

let test_abstract_agreement () =
  agree (Op.Matmul { trans_a = false; trans_b = false })
    [ shape [ 3; 4 ]; shape [ 4; 5 ] ];
  agree (Op.Matmul { trans_a = true; trans_b = true })
    [ shape [ 4; 3 ]; shape [ 5; 4 ] ];
  agree (Op.Dense { trans_w = false }) [ shape [ 2; 7; 4 ]; shape [ 4; 9 ] ];
  agree Op.Dense_bwd_weight [ shape [ 2; 4 ]; shape [ 2; 9 ] ];
  agree (Op.Batch_matmul { trans_a = false; trans_b = false })
    [ shape [ 2; 3; 4 ]; shape [ 2; 4; 5 ] ];
  agree (Op.Conv2d { stride = 1; padding = 0 })
    [ shape [ 1; 3; 8; 8 ]; shape [ 4; 3; 3; 3 ] ];
  agree (Op.Conv2d { stride = 2; padding = 1 })
    [ shape [ 1; 3; 9; 9 ]; shape [ 4; 3; 3; 3 ] ];
  agree (Op.Conv2d_bwd_data { stride = 2; padding = 0 })
    [ shape [ 1; 4; 4; 4 ]; shape [ 4; 3; 2; 2 ] ];
  agree (Op.Pool2d { p_kind = Op.P_max; kernel = 2; p_stride = 2 })
    [ shape [ 1; 3; 8; 8 ] ];
  agree (Op.Unary Op.Relu) [ shape [ 5; 5 ] ];
  agree (Op.Binary Op.Add) [ shape [ 5; 5 ]; shape [ 5; 5 ] ];
  agree (Op.Bias_add 1) [ shape [ 2; 7 ]; shape [ 7 ] ];
  agree (Op.Softmax 1) [ shape [ 2; 7 ] ];
  agree (Op.Reduce (Op.R_sum, [ 0 ])) [ shape [ 4; 6 ] ];
  agree (Op.Transpose [| 1; 0 |]) [ shape [ 3; 7 ] ];
  agree (Op.Reshape [| 6; 2 |]) [ shape [ 3; 4 ] ];
  agree (Op.Slice { axis = 0; lo = 1; hi = 3 }) [ shape [ 4; 2 ] ];
  agree (Op.Concat 1) [ shape [ 2; 3 ]; shape [ 2; 5 ] ];
  agree Op.Store [ shape [ 4 ] ];
  (* rejections must agree too *)
  agree (Op.Matmul { trans_a = false; trans_b = false })
    [ shape [ 3; 4 ]; shape [ 5; 5 ] ];
  agree (Op.Binary Op.Add) [ shape [ 5; 5 ]; shape [ 5; 4 ] ];
  agree (Op.Reshape [| 7 |]) [ shape [ 3; 4 ] ];
  agree (Op.Slice { axis = 0; lo = 0; hi = 9 }) [ shape [ 4; 2 ] ];
  (* a non-dividing stride: Op.infer floors, the symbolic domain refuses *)
  agree (Op.Conv2d { stride = 2; padding = 0 })
    [ shape [ 1; 3; 8; 8 ]; shape [ 4; 3; 3; 3 ] ]

(* Random operators over small operand shapes, mostly of the right
   arity, so both accepting and rejecting paths are drawn. *)
let gen_operator_case =
  let open QCheck2.Gen in
  let dim = oneofl [ 1; 2; 3; 4; 6 ] in
  let gen_shape = list_size (int_range 1 4) dim in
  let ax = int_range (-1) 4 in
  let flag = bool in
  let stride = int_range 1 3 and padding = int_range 0 2 in
  let kinds =
    [ map2 (fun trans_a trans_b -> (Op.Matmul { trans_a; trans_b }, 2)) flag flag;
      map (fun trans_w -> (Op.Dense { trans_w }, 2)) flag;
      return (Op.Dense_bwd_weight, 2);
      map2 (fun trans_a trans_b -> (Op.Batch_matmul { trans_a; trans_b }, 2)) flag flag;
      map2 (fun stride padding -> (Op.Conv2d { stride; padding }, 2)) stride padding;
      map2 (fun stride padding -> (Op.Conv2d_bwd_data { stride; padding }, 2))
        stride padding;
      map2 (fun stride padding -> (Op.Conv2d_bwd_weight { stride; padding }, 3))
        stride padding;
      map2
        (fun kernel p_stride -> (Op.Pool2d { p_kind = Op.P_max; kernel; p_stride }, 1))
        (int_range 1 4) stride;
      return (Op.Pool2d_bwd { p_kind = Op.P_avg; kernel = 2; p_stride = 2 }, 2);
      return (Op.Unary Op.Relu, 1);
      return (Op.Binary Op.Add, 2);
      map (fun a -> (Op.Bias_add a, 2)) ax;
      map (fun a -> (Op.Softmax a, 1)) ax;
      map (fun a -> (Op.Softmax_bwd a, 2)) ax;
      map (fun a -> (Op.Layer_norm a, 3)) ax;
      map (fun a -> (Op.Layer_norm_bwd a, 3)) ax;
      return (Op.Batch_norm, 3);
      map (fun axes -> (Op.Reduce (Op.R_sum, axes), 1)) (list_size (int_range 0 3) ax);
      map2
        (fun dims axes -> (Op.Broadcast { dims = Array.of_list dims; axes }, 1))
        gen_shape (list_size (int_range 0 2) ax);
      map (fun p -> (Op.Transpose (Array.of_list p), 1))
        (list_size (int_range 1 4) (int_range 0 3));
      map (fun d -> (Op.Reshape (Array.of_list d), 1)) gen_shape;
      map3 (fun axis lo hi -> (Op.Slice { axis; lo; hi }, 1)) ax (int_range (-1) 3)
        (int_range 0 6);
      map2 (fun a n -> (Op.Concat a, n)) ax (int_range 2 3);
      return (Op.Embedding, 2);
      return (Op.Embedding_bwd, 3);
      oneofl [ (Op.Store, 1); (Op.Load, 1) ] ]
  in
  let* kind, arity = oneof kinds in
  let* arity = frequency [ (9, return arity); (1, int_range 0 4) ] in
  let* base = gen_shape in
  let* rest =
    list_repeat (max 0 (arity - 1)) (oneof [ return base; gen_shape ])
  in
  let* dt = frequency [ (9, return Shape.F32); (1, return Shape.F16) ] in
  let ins = if arity = 0 then [] else base :: rest in
  return (kind, Array.of_list (List.map (fun d -> Shape.create ~dtype:dt d) ins))

let prop_symbolic_agreement =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"symbolic/concrete agreement on random operators"
       ~count:3000
       ~print:(fun (k, ins) ->
         Printf.sprintf "%s [%s]" (Op.name k)
           (String.concat "; " (Array.to_list (Array.map Shape.to_string ins))))
       gen_operator_case
       (fun (k, ins) ->
         match disagreement k ins with
         | None -> true
         | Some why -> QCheck2.Test.fail_report why))

let test_infer_edge_cases () =
  (* size-1 extents everywhere they are legal *)
  let s = infer_ok (Op.Matmul { trans_a = false; trans_b = false })
      [ shape [ 1; 1 ]; shape [ 1; 1 ] ] in
  Alcotest.(check (list int)) "1x1 matmul" [ 1; 1 ]
    (Array.to_list (Shape.dims s));
  let s = infer_ok (Op.Slice { axis = 1; lo = 0; hi = 1 }) [ shape [ 3; 1 ] ] in
  Alcotest.(check (list int)) "slice of size-1 axis" [ 3; 1 ]
    (Array.to_list (Shape.dims s));
  let s = infer_ok (Op.Concat 0) [ shape [ 1; 4 ]; shape [ 1; 4 ] ] in
  Alcotest.(check (list int)) "concat of size-1 rows" [ 2; 4 ]
    (Array.to_list (Shape.dims s));
  let s = infer_ok (Op.Reduce (Op.R_sum, [ 0; 1 ])) [ shape [ 2; 3 ] ] in
  Alcotest.(check (list int)) "full reduce keeps rank 1" [ 1 ]
    (Array.to_list (Shape.dims s));
  (* dtype mismatches are rejected, not silently coerced *)
  infer_err (Op.Binary Op.Add)
    [ shape [ 4 ]; Shape.create ~dtype:Shape.BF16 [ 4 ] ];
  infer_err (Op.Concat 0)
    [ shape [ 2; 4 ]; Shape.create ~dtype:Shape.F16 [ 2; 4 ] ];
  (* reshape element-count violations *)
  infer_err (Op.Reshape [| 5; 2 |]) [ shape [ 3; 4 ] ];
  infer_err (Op.Reshape [| 0 |]) [ shape [ 3; 4 ] ];
  (* slices past the extent and empty ranges *)
  infer_err (Op.Slice { axis = 0; lo = 2; hi = 2 }) [ shape [ 4 ] ];
  infer_err (Op.Slice { axis = 1; lo = 0; hi = 2 }) [ shape [ 3; 1 ] ]

let suite =
  [
    tc "matmul infer" test_matmul_infer;
    tc "abstract/concrete agreement" test_abstract_agreement;
    tc "infer edge cases" test_infer_edge_cases;
    tc "dense infer" test_dense_infer;
    tc "batch matmul infer" test_bmm_infer;
    tc "conv2d infer" test_conv_infer;
    tc "conv_bwd_data shape carrier" test_conv_bwd_data_shape_carrier;
    tc "deconv upsampling" test_deconv_infer;
    tc "elementwise infer" test_elementwise_infer;
    tc "reduce/broadcast roundtrip" test_reduce_broadcast_roundtrip;
    tc "structural ops" test_structural_ops;
    tc "embedding infer" test_embedding_infer;
    tc "flops monotonicity" test_flops_monotone;
    tc "view/swap predicates" test_view_and_swap_predicates;
    tc "matmul dim links" test_dim_links_matmul;
    tc "dense_bwd_weight dim links" test_dim_links_dense_bwd_weight;
    tc "unsplittable dims" test_unsplittable_dims;
    tc "reduce merge" test_reduce_merge;
    tc "reshape prefix/suffix links" test_reshape_links_prefix_suffix;
    prop_symbolic_agreement;
  ]
