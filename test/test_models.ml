open Magis
open Helpers
module Int_set = Util.Int_set

let check_training_graph name g =
  (* structural sanity common to every workload *)
  let order = Graph.topo_order g in
  Alcotest.(check int) (name ^ ": order covers graph") (Graph.n_nodes g)
    (List.length order);
  Alcotest.(check bool) (name ^ ": has weights") true (Graph.weight_bytes g > 0);
  let _, backward = Chain.split g in
  Alcotest.(check bool) (name ^ ": has a backward pass") true
    (not (Int_set.is_empty backward));
  (* gradients exist: at least one non-input output *)
  Alcotest.(check bool) (name ^ ": has gradient outputs") true
    (List.exists
       (fun v -> not (Op.is_input (Graph.op g v)))
       (Graph.outputs g))

let test_all_quick_workloads_build () =
  List.iter
    (fun (w : Zoo.workload) ->
      check_training_graph w.name (w.build Zoo.Quick))
    Zoo.all

let test_zoo_find () =
  Alcotest.(check string) "case-insensitive" "UNet" (Zoo.find "unet").name;
  Alcotest.(check bool) "unknown raises" true
    (try ignore (Zoo.find "alexnet"); false with Invalid_argument _ -> true)

let test_table2_configs () =
  let batches =
    List.map (fun (w : Zoo.workload) -> (w.name, w.batch)) Zoo.all
  in
  Alcotest.(check (list (pair string int))) "Table 2 batches"
    [ ("ResNet-50", 64); ("BERT-base", 32); ("ViT-base", 64); ("UNet", 32);
      ("UNet++", 16); ("GPT-Neo", 32); ("BTLM", 32) ]
    batches

let test_resnet_structure () =
  let g = Resnet.build ~batch:2 ~image:64 ~blocks:[ 1; 1; 1; 1 ] () in
  let count p = Graph.fold (fun n acc -> if p n.Graph.op then acc + 1 else acc) g 0 in
  let is_conv = function Op.Conv2d _ -> true | _ -> false in
  (* stem + 4 stages x (3 convs + downsample convs) + classifier grads *)
  Alcotest.(check bool) "enough convolutions" true (count is_conv >= 13);
  let is_bn = function Op.Batch_norm -> true | _ -> false in
  Alcotest.(check bool) "batch norms present" true (count is_bn >= 13)

let test_transformer_block_shapes () =
  let g, x, y = attention () in
  Alcotest.(check bool) "block preserves shape" true
    (Shape.equal_dims (Graph.shape g x) (Graph.shape g y));
  (* attention internals present *)
  let has name =
    Graph.fold (fun n acc -> acc || Op.name n.op = name) g false
  in
  Alcotest.(check bool) "softmax present" true (has "softmax(3)");
  Alcotest.(check bool) "bmm present" true (has "bmm_tb")

let test_gpt_dtype_is_bf16 () =
  let g = Zoo.gpt_neo.build Zoo.Quick in
  (* the token embedding table is bf16 *)
  let emb =
    Graph.fold
      (fun n acc -> if n.label = "tok_emb" then Some n else acc)
      g None
  in
  match emb with
  | Some n ->
      Alcotest.(check string) "bf16 weights" "bf16"
        (Shape.dtype_name (Shape.dtype n.shape))
  | None -> Alcotest.fail "no token embedding"

let test_unet_skip_connections () =
  let g = Unet.build_unet ~batch:2 ~image:64 ~base:8 ~depth:3 () in
  let concats =
    Graph.fold
      (fun n acc ->
        match n.op with Op.Concat _ -> acc + 1 | _ -> acc)
      g 0
  in
  (* one concat per decoder level, forward only (backward uses slices) *)
  Alcotest.(check bool) "3 decoder concats" true (concats >= 3)

let test_unetpp_denser_than_unet () =
  let u = Unet.build_unet ~batch:2 ~image:64 ~base:8 ~depth:3 () in
  let upp = Unet.build_unetpp ~batch:2 ~image:64 ~base:8 ~depth:3 () in
  let concats g =
    Graph.fold
      (fun n acc -> match n.Graph.op with Op.Concat _ -> acc + 1 | _ -> acc)
      g 0
  in
  Alcotest.(check bool) "U-Net++ has more skip concats" true
    (concats upp > concats u)

let test_randnet_deterministic_and_distinct () =
  let g1 = Randnet.build ~cfg:{ Randnet.default with seed = 5 } () in
  let g2 = Randnet.build ~cfg:{ Randnet.default with seed = 5 } () in
  let g3 = Randnet.build ~cfg:{ Randnet.default with seed = 6 } () in
  Alcotest.(check bool) "same seed same graph" true
    (Wl_hash.equal_structure g1 g2);
  Alcotest.(check bool) "different seed different graph" false
    (Wl_hash.equal_structure g1 g3)

let test_full_scale_graphs_larger () =
  (* spot-check one workload: the full config has strictly more nodes *)
  let q = Zoo.bert.build Zoo.Quick in
  let f = Zoo.bert.build Zoo.Full in
  Alcotest.(check bool) "full deeper than quick" true
    (Graph.n_nodes f > Graph.n_nodes q)

let test_full_scale_magnitudes_ordered () =
  (* peak memory at paper scale: BTLM > GPT-Neo > BERT, and GPT-Neo
     exceeds a 24 GB card (the paper's OOM observation) *)
  let c = cache () in
  let peak name =
    let g = (Zoo.find name).build Zoo.Full in
    (Simulator.run c g (Graph.topo_order g)).peak_mem
  in
  let bert = peak "bert-base" and gpt = peak "gpt-neo" and btlm = peak "btlm" in
  Alcotest.(check bool) "BTLM > GPT-Neo" true (btlm > gpt);
  Alcotest.(check bool) "GPT-Neo > BERT" true (gpt > bert);
  Alcotest.(check bool) "GPT-Neo OOMs a 24GB card" true
    (gpt > Hardware.rtx3090.device_memory)

let test_srnet_structure () =
  let g = Unet.srnet_inference ~image:64 ~channels:8 ~depth:4 () in
  (* 1 + depth + 1 convolutions, all stride-1 same-padded *)
  let convs =
    Graph.fold
      (fun n acc ->
        match n.Graph.op with
        | Op.Conv2d { stride = 1; padding = 1 } -> acc + 1
        | _ -> acc)
      g 0
  in
  Alcotest.(check int) "six same convs" 6 convs

let test_densenet_structure () =
  let g = Unet.densenet_training ~batch:2 ~image:16 ~growth:4 ~layers:4 ~blocks:2 () in
  check_training_graph "DenseNet" g;
  (* dense connectivity: many concats whose widths grow along the block *)
  let concats =
    Graph.fold
      (fun n acc -> match n.Graph.op with Op.Concat _ -> acc + 1 | _ -> acc)
      g 0
  in
  Alcotest.(check bool) "dense concats" true (concats >= 6)

let suite =
  [
    tc "all quick workloads build" test_all_quick_workloads_build;
    tc "densenet structure" test_densenet_structure;
    tc "zoo lookup" test_zoo_find;
    tc "Table 2 configurations" test_table2_configs;
    tc "resnet structure" test_resnet_structure;
    tc "transformer block shapes" test_transformer_block_shapes;
    tc "gpt dtype bf16" test_gpt_dtype_is_bf16;
    tc "unet skip connections" test_unet_skip_connections;
    tc "unet++ denser skips" test_unetpp_denser_than_unet;
    tc "randnet determinism" test_randnet_deterministic_and_distinct;
    tc "full scale larger" test_full_scale_graphs_larger;
    tc "full scale magnitudes ordered" test_full_scale_magnitudes_ordered;
    tc "srnet structure" test_srnet_structure;
  ]
