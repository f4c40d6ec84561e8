(** Allocator interference checker: clean on every zoo model, and each
    corruption of a valid plan is caught by the matching check. *)

open Magis
open Helpers

(** Diamond with two simultaneously live interior tensors. *)
let diamond () =
  let g = Graph.empty in
  let sh = Shape.create [ 8; 8 ] in
  let g, x = Graph.add_input ~label:"x" g Op.Placeholder sh in
  let g, a = Graph.add g (Op.Unary Op.Relu) [ x ] in
  let g, b = Graph.add g (Op.Unary Op.Exp) [ a ] in
  let g, c = Graph.add g (Op.Unary Op.Neg) [ a ] in
  let g, _ = Graph.add g (Op.Binary Op.Add) [ b; c ] in
  verified ~what:"diamond" g

let plan_of g =
  let order = Graph.topo_order g in
  let lt = Lifetime.analyze g order in
  (lt, Allocator.plan lt)

let assert_caught what check diags =
  if Diagnostic.is_clean diags then
    Alcotest.failf "%s: corruption not caught" what;
  if not (Diagnostic.has_check check diags) then
    Alcotest.failf "%s: expected a %s error, got:@\n%s" what check
      (Diagnostic.report_to_string diags)

let test_clean_plan () =
  let g = diamond () in
  let r = Interfere.check g (Graph.topo_order g) in
  Alcotest.(check bool) "clean" true (Interfere.is_clean r);
  Alcotest.(check bool) "has buffers" true (r.Interfere.n_buffers > 0);
  Alcotest.(check bool) "plan valid" true (Allocator.is_valid r.Interfere.arena)

(** Every Table-2 zoo workload, program order and the memory-greedy
    reorder: the planner must produce interference-free layouts on all
    of them. *)
let test_zoo_interference_free () =
  List.iter
    (fun (w : Zoo.workload) ->
      let g = w.build Zoo.Quick in
      List.iter
        (fun (sched_name, order) ->
          let r = Interfere.check g order in
          if not (Interfere.is_clean r) then
            Alcotest.failf "%s (%s): %s" w.name sched_name
              (Diagnostic.report_to_string
                 (Diagnostic.errors r.Interfere.diags)))
        [ ("program order", Graph.topo_order g);
          ("greedy reorder", Reorder.schedule ~max_states:0 g) ])
    Zoo.all

let test_corrupt_overlap () =
  let g = diamond () in
  let lt, alloc = plan_of g in
  (* collapse every buffer onto offset 0: simultaneously live tensors
     now share addresses *)
  let corrupt =
    { alloc with
      Allocator.placements =
        List.map
          (fun (p : Allocator.placement) -> { p with Allocator.offset = 0 })
          alloc.Allocator.placements }
  in
  assert_caught "overlap" "alloc-overlap" (Interfere.check_plan g lt corrupt);
  Alcotest.(check bool) "is_valid rejects it" false
    (Allocator.is_valid corrupt);
  Alcotest.(check bool) "overlaps lists pairs" true
    (Allocator.overlaps corrupt <> [])

let test_corrupt_arena_overflow () =
  let g = diamond () in
  let lt, alloc = plan_of g in
  let corrupt = { alloc with Allocator.arena_size = 1 } in
  assert_caught "overflow" "arena-overflow" (Interfere.check_plan g lt corrupt)

let test_corrupt_interval () =
  let g = diamond () in
  let lt, alloc = plan_of g in
  let corrupt =
    match alloc.Allocator.placements with
    | p :: rest ->
        { alloc with
          Allocator.placements =
            { p with Allocator.birth = p.Allocator.birth + 1 } :: rest }
    | [] -> Alcotest.fail "no placements"
  in
  assert_caught "stale interval" "interval-mismatch"
    (Interfere.check_plan g lt corrupt)

let test_corrupt_missing_placement () =
  let g = diamond () in
  let lt, alloc = plan_of g in
  let corrupt =
    { alloc with
      Allocator.placements = List.tl alloc.Allocator.placements }
  in
  assert_caught "missing placement" "missing-placement"
    (Interfere.check_plan g lt corrupt)

let test_corrupt_size () =
  let g = diamond () in
  let lt, alloc = plan_of g in
  let corrupt =
    match alloc.Allocator.placements with
    | p :: rest ->
        { alloc with
          Allocator.placements =
            { p with Allocator.bytes = p.Allocator.bytes / 2 } :: rest }
    | [] -> Alcotest.fail "no placements"
  in
  assert_caught "wrong size" "size-mismatch"
    (Interfere.check_plan g lt corrupt)

(** A view outliving its base's buffer is the hazard an eliding runtime
    would hit: reported as a warning, never an error. *)
let test_view_alias_warning () =
  let g = Graph.empty in
  let sh = Shape.create [ 4; 6 ] in
  let g, x = Graph.add_input ~label:"x" g Op.Placeholder sh in
  let g, a = Graph.add g (Op.Unary Op.Relu) [ x ] in
  let g, v = Graph.add g (Op.Transpose [| 1; 0 |]) [ a ] in
  let g, _ = Graph.add g (Op.Unary Op.Relu) [ v ] in
  let g = verified ~what:"view chain" g in
  let r = Interfere.check g (Graph.topo_order g) in
  Alcotest.(check bool) "no errors" true (Interfere.is_clean r);
  if not (Diagnostic.has_check "view-alias" r.Interfere.diags) then
    Alcotest.failf "expected a view-alias warning, got:@\n%s"
      (Diagnostic.report_to_string r.Interfere.diags)

let suite =
  [
    tc "clean plan" test_clean_plan;
    tc "zoo models interference-free" test_zoo_interference_free;
    tc "corrupt: overlapping offsets" test_corrupt_overlap;
    tc "corrupt: arena overflow" test_corrupt_arena_overflow;
    tc "corrupt: stale interval" test_corrupt_interval;
    tc "corrupt: missing placement" test_corrupt_missing_placement;
    tc "corrupt: wrong size" test_corrupt_size;
    tc "view-alias warning" test_view_alias_warning;
  ]
