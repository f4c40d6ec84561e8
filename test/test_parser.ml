open Magis
open Helpers

let roundtrip name g =
  let text = Export.to_text g in
  match Program_parser.parse text with
  | Error e -> Alcotest.failf "%s: parse failed: %s" name e
  | Ok prog ->
      Alcotest.(check int) (name ^ ": node count") (Graph.n_nodes g)
        (Graph.n_nodes prog.graph);
      Alcotest.(check bool) (name ^ ": structure preserved") true
        (Wl_hash.equal_structure g prog.graph)

let test_roundtrip_small_graphs () =
  let g, _, _, _, _ = diamond () in
  roundtrip "diamond" g;
  let g, _, _ = attention () in
  roundtrip "attention" g;
  roundtrip "mlp training" (mlp_training ())

let test_roundtrip_all_workloads () =
  List.iter
    (fun (w : Zoo.workload) -> roundtrip w.name (w.build Zoo.Quick))
    Zoo.all

let test_roundtrip_with_swaps_and_schedule () =
  let b = Builder.create () in
  let x = Builder.input b [ 64 ] ~dtype:Shape.F32 in
  let r = Builder.relu b x in
  let st = Builder.op b Op.Store [ r ] in
  let ld = Builder.op b Op.Load [ st ] in
  let t = Builder.tanh_ b r in
  let _ = Builder.add b t ld in
  let g = Builder.finish b in
  let schedule = Graph.topo_order g in
  let text = Export.to_text_with_schedule g ~schedule in
  match Program_parser.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok prog ->
      Alcotest.(check bool) "structure preserved" true
        (Wl_hash.equal_structure g prog.graph);
      (match prog.schedule with
      | None -> Alcotest.fail "schedule header lost"
      | Some s ->
          Alcotest.(check int) "schedule length" (List.length schedule)
            (List.length s);
          Alcotest.(check bool) "remapped schedule valid" true
            (is_valid_order prog.graph s))

let test_parse_errors () =
  let bad = [
    "%0 = frobnicate f32[2] () \"\"";       (* unknown op *)
    "%0 = relu f32[2] (99) \"\"";            (* unknown input *)
    "%0 = relu zz[2] () \"\"";               (* bad dtype *)
  ] in
  List.iter
    (fun text ->
      match Program_parser.parse text with
      | Ok _ -> Alcotest.failf "expected failure for %s" text
      | Error _ -> ())
    bad

let suite =
  [
    tc "round-trip small graphs" test_roundtrip_small_graphs;
    tc "round-trip all workloads" test_roundtrip_all_workloads;
    tc "round-trip swaps + schedule" test_roundtrip_with_swaps_and_schedule;
    tc "parse errors" test_parse_errors;
  ]
