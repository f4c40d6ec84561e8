(** Mutation tests for the analysis layer (ISSUE: each checker class
    must detect a seeded violation).  [Graph.replace_input] keeps the
    adjacency symmetric but validates neither acyclicity, source
    existence nor shape agreement — exactly the corruption channel the
    verifier is there to catch.  Schedule corruptions are seeded by
    permuting / duplicating a valid [Graph.topo_order]. *)

open Magis
module H = Helpers

let has check msg diags =
  Alcotest.(check bool) msg true (Diagnostic.has_check check diags)

(* ------------------------------------------------------------------ *)
(* IR verifier                                                         *)
(* ------------------------------------------------------------------ *)

let test_clean () =
  let g, _, _, _, _ = H.chain3 () in
  Alcotest.(check (list string)) "chain3 clean" []
    (List.map Diagnostic.to_string (Verify.graph g));
  H.verify_clean ~what:"mlp" (H.mlp_training ());
  let g, _, _ = H.attention () in
  H.verify_clean ~what:"attention" g

let test_cycle () =
  let g, _, r1, r2, r3 = H.chain3 () in
  (* r2 consumed r1; making it consume its own consumer r3 closes the
     loop r2 -> r3 -> r2 *)
  let bad = Graph.replace_input g ~node_id:r2 ~old_src:r1 ~new_src:r3 in
  has "cycle" "cycle detected" (Verify.graph bad)

let test_dangling_input () =
  let g, _, r1, r2, _ = H.chain3 () in
  let bad = Graph.replace_input g ~node_id:r2 ~old_src:r1 ~new_src:9999 in
  has "dangling-input" "dangling operand detected" (Verify.graph bad)

let test_stale_shape () =
  let b = Builder.create () in
  let x = Builder.input b [ 16 ] ~dtype:Shape.F32 in
  let y = Builder.input b [ 8 ] ~dtype:Shape.F32 in
  let r = Builder.relu b x in
  let out = Builder.relu b r in
  ignore out;
  ignore y;
  let g = Builder.finish b in
  (* r's stored shape stays [16] but its operand becomes the 8-element
     input: re-inference must disagree with the record *)
  let bad = Graph.replace_input g ~node_id:r ~old_src:x ~new_src:y in
  has "shape-mismatch" "stale stored shape detected" (Verify.graph bad)

(* ------------------------------------------------------------------ *)
(* Schedule legality checker                                           *)
(* ------------------------------------------------------------------ *)

(** x -> relu -> Store -> Load -> add(load, x): the minimal swapped
    tensor, for the Store/Load ordering checks. *)
let swap_graph () =
  let g = Graph.empty in
  let g, x = Graph.add_input ~label:"x" g Op.Placeholder (Shape.create [ 16 ]) in
  let g, r = Graph.add g (Op.Unary Op.Relu) [ x ] in
  let g, store = Graph.add g Op.Store [ r ] in
  let g, load = Graph.add g Op.Load [ store ] in
  let g, out = Graph.add g (Op.Binary Op.Add) [ load; x ] in
  (g, [ x; r; store; load; out ])

let test_sched_clean () =
  let g = H.mlp_training () in
  H.schedule_clean g (Graph.topo_order g);
  let g, order = swap_graph () in
  H.schedule_clean ~what:"swap graph" g order

let test_operand_after_use () =
  let g, x, r1, r2, r3 = H.chain3 () in
  has "operand-order" "consumer before operand detected"
    (Sched_check.schedule g [ x; r2; r1; r3 ])

let test_double_schedule () =
  let g, x, r1, r2, r3 = H.chain3 () in
  has "double-schedule" "duplicate step detected"
    (Sched_check.schedule g [ x; r1; r1; r2; r3 ])

let test_missing_node () =
  let g, x, r1, r2, r3 = H.chain3 () in
  ignore r3;
  has "missing-node" "missing step detected"
    (Sched_check.schedule g [ x; r1; r2 ])

let test_load_before_store () =
  let g, order = swap_graph () in
  match order with
  | [ x; r; store; load; out ] ->
      has "load-before-store" "Load before its Store detected"
        (Sched_check.schedule g [ x; r; load; store; out ])
  | _ -> Alcotest.fail "unexpected swap graph order"

(* ------------------------------------------------------------------ *)
(* Property: generated graphs and their program orders are clean       *)
(* ------------------------------------------------------------------ *)

let test_randnet_clean () =
  for seed = 1 to 50 do
    let g =
      Randnet.build
        ~cfg:
          { Randnet.cells = 1; nodes_per_cell = 3; channels = 8; image = 8;
            batch = 2; seed }
        ()
    in
    let what = Printf.sprintf "randnet seed %d" seed in
    H.verify_clean ~what g;
    H.schedule_clean ~what g (Graph.topo_order g)
  done

(* ------------------------------------------------------------------ *)
(* Rule lint on a small corpus                                         *)
(* ------------------------------------------------------------------ *)

let test_rule_lint_clean () =
  let att, _, _ = H.attention () in
  let corpus = [ ("mlp", H.mlp_training ()); ("attention", att) ] in
  let rules = Taso_rules.all @ Sched_rules.all in
  let report = Rule_lint.lint ~rules corpus in
  if not (Rule_lint.is_clean report) then
    Alcotest.failf "rule lint not clean:@\n%a" Rule_lint.pp_report report;
  Alcotest.(check bool) "some rewrites were linted" true
    (report.n_rewrites > 0)

let suite =
  [
    H.tc "clean graphs produce no diagnostics" test_clean;
    H.tc "cycle is detected" test_cycle;
    H.tc "dangling input is detected" test_dangling_input;
    H.tc "stale stored shape is detected" test_stale_shape;
    H.tc "clean schedules pass" test_sched_clean;
    H.tc "operand after use is detected" test_operand_after_use;
    H.tc "double schedule is detected" test_double_schedule;
    H.tc "missing node is detected" test_missing_node;
    H.tc "Load before Store is detected" test_load_before_store;
    H.tc "50 random graphs verify clean" test_randnet_clean;
    H.tc "rule lint clean on small corpus" test_rule_lint_clean;
  ]
