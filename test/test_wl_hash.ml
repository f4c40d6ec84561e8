open Magis
open Helpers

let test_renumbering_invariance () =
  (* the same structure built in a different insertion order hashes
     identically *)
  let build order_swapped =
    let b = Builder.create () in
    let x = Builder.input b [ 8 ] ~dtype:Shape.F32 in
    let l, r =
      if order_swapped then
        let r = Builder.tanh_ b x in
        let l = Builder.relu b x in
        (l, r)
      else
        let l = Builder.relu b x in
        let r = Builder.tanh_ b x in
        (l, r)
    in
    let _ = Builder.add b l r in
    Builder.finish b
  in
  Alcotest.(check bool) "same hash" true
    (Wl_hash.equal_structure (build false) (build true))

let test_operand_order_matters () =
  (* sub(a,b) and sub(b,a) must differ *)
  let build swapped =
    let b = Builder.create () in
    let x = Builder.input b [ 8 ] ~dtype:Shape.F32 in
    let l = Builder.relu b x in
    let r = Builder.tanh_ b x in
    let _ = if swapped then Builder.sub b r l else Builder.sub b l r in
    Builder.finish b
  in
  Alcotest.(check bool) "different hash" false
    (Wl_hash.equal_structure (build false) (build true))

let test_shape_matters () =
  let build n =
    let g, _, _, _, _ = chain3 ~n () in
    g
  in
  Alcotest.(check bool) "different sizes differ" false
    (Wl_hash.equal_structure (build 16) (build 32))

let test_op_matters () =
  let g1, _, _, _, _ = chain3 () in
  let b = Builder.create () in
  let x = Builder.input b [ 16 ] ~dtype:Shape.F32 in
  let t1 = Builder.relu b x in
  let t2 = Builder.gelu b t1 in
  let _ = Builder.relu b t2 in
  let g2 = Builder.finish b in
  Alcotest.(check bool) "gelu in the middle differs" false
    (Wl_hash.equal_structure g1 g2)

let test_extension_changes_hash () =
  let g, x, _, _, _ = diamond () in
  let h0 = Wl_hash.hash g in
  let g2, _ = Graph.add g (Op.Unary Op.Neg) [ x ] in
  Alcotest.(check bool) "adding a node changes hash" true (h0 <> Wl_hash.hash g2)

let test_models_hash_deterministically () =
  let g1 = mlp_training () in
  let g2 = mlp_training () in
  Alcotest.(check bool) "deterministic builders" true
    (Wl_hash.equal_structure g1 g2)

(* Frontier-cache keys, checkpoint fingerprints and Sim_cache keys are
   built from these hashes: a change here silently turns every existing
   on-disk cache into a miss.  Update the pins only together with the
   on-disk format versions. *)
let golden_quick =
  [
    ("ResNet-50", 5896262475658346722L);
    ("BERT-base", -373201452488521457L);
    ("ViT-base", -6717725072326964781L);
    ("UNet", -7044438802239389474L);
    ("UNet++", -7361018456173504485L);
    ("GPT-Neo", -8414869531263501320L);
    ("BTLM", 1301748200265702614L);
  ]

let test_golden_zoo_hashes () =
  Alcotest.(check (list string)) "every zoo model pinned" Zoo.names
    (List.map fst golden_quick);
  List.iter
    (fun (name, expected) ->
      let g = (Zoo.find name).build Zoo.Quick in
      Alcotest.(check int64) (name ^ " WL hash") expected (Wl_hash.hash g))
    golden_quick

(** [Op.fingerprint] is memoized per domain; it must stay the hash of
    the operator name in every domain, first query or repeated. *)
let test_fingerprint_is_name_hash () =
  let kinds =
    List.concat_map
      (fun (w : Zoo.workload) ->
        Graph.fold (fun n acc -> n.op :: acc) (w.build Zoo.Quick) [])
      Zoo.all
    @ [ Op.Unary (Op.Scale 0.0); Op.Unary (Op.Scale (-0.0)) ]
  in
  let mismatches () =
    List.filter
      (fun k -> not (Int64.equal (Op.fingerprint k) (Util.hash_string (Op.name k))))
      kinds
    |> List.length
  in
  Alcotest.(check int) "main domain, first pass" 0 (mismatches ());
  Alcotest.(check int) "main domain, memoized" 0 (mismatches ());
  let other = Domain.spawn (fun () -> (mismatches (), mismatches ())) in
  Alcotest.(check (pair int int)) "second domain" (0, 0) (Domain.join other)

let suite =
  [
    tc "golden zoo hashes" test_golden_zoo_hashes;
    tc "fingerprint = hash of name" test_fingerprint_is_name_hash;
    tc "renumbering invariance" test_renumbering_invariance;
    tc "operand order matters" test_operand_order_matters;
    tc "shape matters" test_shape_matters;
    tc "op matters" test_op_matters;
    tc "extension changes hash" test_extension_changes_hash;
    tc "deterministic across builds" test_models_hash_deterministically;
  ]
