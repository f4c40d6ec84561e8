open Magis
open Helpers
module Int_set = Util.Int_set

let ctx_for c g schedule =
  let res = Simulator.run c g schedule in
  let pos = Hashtbl.create 64 in
  List.iteri (fun i v -> Hashtbl.replace pos v i) schedule;
  { Rule.default_ctx with
    hotspots = Lifetime.hotspots res.analysis;
    schedule_pos = (fun v -> Hashtbl.find_opt pos v);
    max_per_rule = 16 }

(* large-activation training graph where scheduling rules have targets *)
let subject () =
  let b = Builder.create () in
  let x = Builder.input b [ 128; 64 ] ~dtype:Shape.F32 in
  let h = ref x in
  for _ = 1 to 5 do
    let w = Builder.weight b [ 64; 64 ] ~dtype:Shape.F32 in
    h := Builder.gelu b (Builder.dense b !h w)
  done;
  let loss = Builder.sum_loss b !h in
  Autodiff.backward (Builder.finish b) ~loss

(** Every rewrite must preserve graph invariants: acyclic, valid shapes,
    same graph outputs count (semantics-preserving rewrites never lose a
    result). *)
let check_rewrite_soundness g (rw : Rule.rewrite) =
  let order = Graph.topo_order rw.graph in
  Alcotest.(check int)
    (rw.rule ^ ": order covers graph")
    (Graph.n_nodes rw.graph) (List.length order);
  let outs g = List.length (Graph.outputs g) in
  Alcotest.(check bool)
    (rw.rule ^ ": outputs preserved")
    true
    (outs rw.graph >= outs g)

let test_all_rules_sound () =
  let c = cache () in
  let g = subject () in
  let schedule = Reorder.schedule ~max_states:0 g in
  let ctx = ctx_for c g schedule in
  List.iter
    (fun (r : Rule.t) ->
      List.iter (check_rewrite_soundness g) (Rule.apply r ctx g))
    (Sched_rules.all @ Taso_rules.all)

let test_swap_then_deswap_roundtrip () =
  let c = cache () in
  let g = subject () in
  let schedule = Reorder.schedule ~max_states:0 g in
  let ctx = ctx_for c g schedule in
  match Rule.apply Sched_rules.swapping ctx g with
  | [] -> Alcotest.fail "no swap rewrite"
  | rw :: _ -> (
      let swap_count g =
        Graph.fold
          (fun n acc -> if Op.is_swap n.op then acc + 1 else acc)
          g 0
      in
      Alcotest.(check int) "store+load added" 2 (swap_count rw.graph);
      match Rule.apply Sched_rules.de_swapping ctx rw.graph with
      | [] -> Alcotest.fail "no de-swap rewrite"
      | rw2 :: _ ->
          Alcotest.(check int) "swap removed" 0 (swap_count rw2.graph);
          Alcotest.(check bool) "structure restored" true
            (Wl_hash.equal_structure g rw2.graph))

let test_remat_then_deremat_roundtrip () =
  let c = cache () in
  let g = subject () in
  let schedule = Reorder.schedule ~max_states:0 g in
  let ctx = ctx_for c g schedule in
  match Rule.apply Sched_rules.rematerialization ctx g with
  | [] -> Alcotest.fail "no remat rewrite"
  | rw :: _ -> (
      Alcotest.(check int) "one node added" (Graph.n_nodes g + 1)
        (Graph.n_nodes rw.graph);
      match Rule.apply Sched_rules.de_rematerialization ctx rw.graph with
      | [] -> Alcotest.fail "no de-remat rewrite"
      | rewrites ->
          (* among the mergeable duplicate pairs, one merge undoes ours *)
          Alcotest.(check bool) "some de-remat restores the structure" true
            (List.exists
               (fun (rw2 : Rule.rewrite) ->
                 Wl_hash.equal_structure g rw2.graph)
               rewrites))

let test_swap_reduces_peak_with_reschedule () =
  let c = cache () in
  let g = subject () in
  let schedule = Reorder.schedule ~max_states:0 g in
  let base = Simulator.run c g schedule in
  let ctx = ctx_for c g schedule in
  let best =
    List.fold_left
      (fun acc (rw : Rule.rewrite) ->
        let order = Reorder.schedule ~max_states:0 rw.graph in
        let r = Simulator.run c rw.graph order in
        min acc r.peak_mem)
      max_int
      (Rule.apply Sched_rules.swapping ctx g)
  in
  Alcotest.(check bool) "some swap reduces peak" true (best < base.peak_mem)

let test_qkv_merge () =
  (* three parallel Dense ops sharing an input merge into one (Fig. 1a) *)
  let b = Builder.create () in
  let x = Builder.input b [ 8; 16 ] ~dtype:Shape.F32 in
  let mk () = Builder.weight b [ 16; 16 ] ~dtype:Shape.F32 in
  let q = Builder.dense b x (mk ()) in
  let k = Builder.dense b x (mk ()) in
  let v = Builder.dense b x (mk ()) in
  let _ = Builder.add b (Builder.add b q k) v in
  let g = Builder.finish b in
  let ctx = { Rule.default_ctx with max_per_rule = 4 } in
  match Rule.apply Taso_rules.merge_parallel ctx g with
  | [] -> Alcotest.fail "no merge rewrite"
  | rw :: _ ->
      (* merged graph has one dense and three slices *)
      let count name g =
        Graph.fold
          (fun n acc -> if Op.name n.op = name then acc + 1 else acc)
          g 0
      in
      Alcotest.(check int) "one dense left" 1 (count "dense" rw.graph);
      Alcotest.(check int) "one weight concat" 1 (count "concat(1)" rw.graph);
      Alcotest.(check bool) "slices introduced" true
        (Graph.fold
           (fun n acc ->
             acc || (match n.op with Op.Slice _ -> true | _ -> false))
           rw.graph false)

let test_concat_slice_elimination () =
  let b = Builder.create () in
  let x = Builder.input b [ 8; 16 ] ~dtype:Shape.F32 in
  let s1 = Builder.slice b ~axis:1 ~lo:0 ~hi:8 x in
  let s2 = Builder.slice b ~axis:1 ~lo:8 ~hi:16 x in
  let cat = Builder.concat b ~axis:1 [ s1; s2 ] in
  let _ = Builder.relu b cat in
  let g = Builder.finish b in
  let ctx = Rule.default_ctx in
  match Rule.apply Taso_rules.concat_of_slices ctx g with
  | [] -> Alcotest.fail "no elimination"
  | rw :: _ ->
      Alcotest.(check int) "collapsed to input+relu" 2 (Graph.n_nodes rw.graph)

(** A sink concat whose slices cover the whole source: the source
    replaces the concat and must stay, as the graph output that carries
    the concat's value. *)
let test_concat_slice_sink_keeps_output () =
  let b = Builder.create () in
  let x = Builder.input b [ 8; 16 ] ~dtype:Shape.F32 in
  let r = Builder.relu b x in
  let s1 = Builder.slice b ~axis:1 ~lo:0 ~hi:8 r in
  let s2 = Builder.slice b ~axis:1 ~lo:8 ~hi:16 r in
  let cat = Builder.concat b ~axis:1 [ s1; s2 ] in
  let g = Builder.finish b in
  Alcotest.(check (list int)) "the concat is the sink" [ cat ] (Graph.outputs g);
  match Rule.apply Taso_rules.concat_of_slices Rule.default_ctx g with
  | [] -> Alcotest.fail "no elimination"
  | rw :: _ ->
      Alcotest.(check (list int)) "the source is the output" [ r ]
        (Graph.outputs rw.graph);
      let env = Magis_exec.Interp.default_env g in
      let before = Magis_exec.Interp.run g ~env
      and after = Magis_exec.Interp.run rw.graph ~env in
      Alcotest.(check (float 0.0)) "the output evaluates to the concat" 0.0
        (Magis_exec.Interp.max_diff (Hashtbl.find before cat)
           (Hashtbl.find after r))

let test_transpose_pair_elimination () =
  let b = Builder.create () in
  let x = Builder.input b [ 4; 8; 2 ] ~dtype:Shape.F32 in
  let t1 = Builder.transpose b ~perm:[| 1; 0; 2 |] x in
  let t2 = Builder.transpose b ~perm:[| 1; 0; 2 |] t1 in
  let _ = Builder.relu b t2 in
  let g = Builder.finish b in
  match Rule.apply Taso_rules.transpose_pairs Rule.default_ctx g with
  | [] -> Alcotest.fail "no elimination"
  | rw :: _ ->
      Alcotest.(check int) "transposes gone" 2 (Graph.n_nodes rw.graph)

let test_add_reassociation_preserves () =
  let b = Builder.create () in
  let x = Builder.input b [ 32 ] ~dtype:Shape.F32 in
  let a1 = Builder.relu b x in
  let a2 = Builder.tanh_ b x in
  let a3 = Builder.sigmoid b x in
  let s = Builder.add b (Builder.add b a1 a2) a3 in
  let _ = Builder.relu b s in
  let g = Builder.finish b in
  match Rule.apply Taso_rules.add_reassociate Rule.default_ctx g with
  | [] -> Alcotest.fail "no reassociation"
  | rw :: _ ->
      Alcotest.(check int) "same node count" (Graph.n_nodes g)
        (Graph.n_nodes rw.graph);
      Alcotest.(check bool) "different structure" false
        (Wl_hash.equal_structure g rw.graph)

let test_sweep_remat_chains_copies () =
  let c = cache () in
  let g = subject () in
  let schedule = Reorder.schedule ~max_states:0 g in
  let ctx = ctx_for c g schedule in
  match Rule.apply Sched_rules.sweep_rematerialization ctx g with
  | [] -> () (* no cheap hot tensors: acceptable on this subject *)
  | rw :: _ ->
      (* the rewrite is one compound step touching several nodes *)
      Alcotest.(check bool) "touches several nodes" true
        (Int_set.cardinal rw.touched_old >= 2);
      ignore (Graph.topo_order rw.graph)

let test_hotspot_restriction () =
  let c = cache () in
  let g = subject () in
  let schedule = Reorder.schedule ~max_states:0 g in
  let ctx = ctx_for c g schedule in
  let restricted = Rule.apply Sched_rules.swapping ctx g in
  let unrestricted =
    Rule.apply Sched_rules.swapping { ctx with restrict_to_hotspots = false } g
  in
  Alcotest.(check bool) "heuristic prunes the rule space" true
    (List.length restricted <= List.length unrestricted)

(* Two consumers of [x] that print alike but compute different values:
   de-remat groups by operator name, and must not merge them. *)
let lookalikes kinds =
  let g, x = Graph.add_input Graph.empty Op.Placeholder (Shape.create [ 4 ]) in
  List.fold_left
    (fun (g, ids) k ->
      let g, v = Graph.add g k [ x ] in
      let g, _ = Graph.add g (Op.Unary Op.Relu) [ v ] in
      (g, ids @ [ v ]))
    (g, []) kinds

let test_deremat_broadcast_targets () =
  let bcast dims = Op.Broadcast { dims; axes = [ 0 ] } in
  let g, _ = lookalikes [ bcast [| 2; 4 |]; bcast [| 3; 4 |] ] in
  Alcotest.(check string) "one name" (Op.name (bcast [| 2; 4 |])) (Op.name (bcast [| 3; 4 |]));
  (* the eager rule redirected one onto the other, across shapes *)
  Alcotest.check_raises "the eager rule raised"
    (Invalid_argument "Graph.redirect: shape mismatch") (fun () ->
      ignore (Ref_rules.de_rematerialization.apply Rule.default_ctx g));
  Alcotest.(check int) "not merged" 0
    (List.length (Rule.apply Sched_rules.de_rematerialization Rule.default_ctx g));
  (* a true duplicate of the first is still merged into it *)
  let g, ids = lookalikes [ bcast [| 2; 4 |]; bcast [| 3; 4 |]; bcast [| 2; 4 |] ] in
  match Rule.apply Sched_rules.de_rematerialization Rule.default_ctx g with
  | [ rw ] ->
      Alcotest.(check bool) "the later duplicate is gone" false
        (Graph.mem rw.graph (List.nth ids 2));
      Alcotest.(check bool) "the other target stays" true
        (Graph.mem rw.graph (List.nth ids 1))
  | l -> Alcotest.failf "%d rewrites, expected 1" (List.length l)

let test_deremat_scale_digits () =
  let scale f = Op.Unary (Op.Scale f) in
  let g, _ = lookalikes [ scale 1.0; scale 1.0000001 ] in
  Alcotest.(check string) "one name" (Op.name (scale 1.0)) (Op.name (scale 1.0000001));
  Alcotest.(check int) "the eager rule merged them" 1
    (List.length (Ref_rules.de_rematerialization.apply Rule.default_ctx g));
  Alcotest.(check int) "not merged" 0
    (List.length (Rule.apply Sched_rules.de_rematerialization Rule.default_ctx g))

let suite =
  [
    tc "all rules produce sound rewrites" test_all_rules_sound;
    tc "swap/de-swap roundtrip" test_swap_then_deswap_roundtrip;
    tc "remat/de-remat roundtrip" test_remat_then_deremat_roundtrip;
    tc "swap reduces peak" test_swap_reduces_peak_with_reschedule;
    tc "QKV merge (Fig. 1a)" test_qkv_merge;
    tc "concat-of-slices elimination" test_concat_slice_elimination;
    tc "concat-of-slices on a sink keeps its output"
      test_concat_slice_sink_keeps_output;
    tc "transpose pair elimination" test_transpose_pair_elimination;
    tc "add re-association" test_add_reassociation_preserves;
    tc "sweep remat builds chains" test_sweep_remat_chains_copies;
    tc "hot-spot restriction (§5.2)" test_hotspot_restriction;
    tc "de-remat: broadcasts to different targets" test_deremat_broadcast_targets;
    tc "de-remat: scales equal to six digits" test_deremat_scale_digits;
  ]
