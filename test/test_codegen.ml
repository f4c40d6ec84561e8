open Magis
open Helpers

let count_lines_with code needle =
  String.split_on_char '\n' code
  |> List.filter (fun l -> contains l needle)
  |> List.length

let test_emit_structure () =
  let g = mlp_training ~batch:4 ~hidden:8 () in
  let schedule = Graph.topo_order g in
  let code = Pytorch_codegen.emit g ~schedule in
  Alcotest.(check bool) "imports torch" true (contains code "import torch");
  Alcotest.(check bool) "defines run" true (contains code "def run(inputs");
  Alcotest.(check bool) "defines input_specs" true
    (contains code "def input_specs");
  Alcotest.(check bool) "returns outputs" true (contains code "    return [");
  (* one assignment per non-swap node *)
  let assignments = count_lines_with code " = " in
  Alcotest.(check bool) "assignment per op" true
    (assignments >= Graph.n_nodes g)

let test_emit_covers_schedule_order () =
  let g, x, r1, r2, r3 = chain3 () in
  let code = Pytorch_codegen.emit g ~schedule:[ x; r1; r2; r3 ] in
  (* r1 assigned before r2 before r3 *)
  let idx v =
    let needle = Printf.sprintf "t%d = " v in
    let rec find i =
      if i + String.length needle > String.length code then -1
      else if String.sub code i (String.length needle) = needle then i
      else find (i + 1)
    in
    find 0
  in
  Alcotest.(check bool) "ordered" true (idx r1 < idx r2 && idx r2 < idx r3)

let test_dead_tensors_deleted () =
  let g, _, r1, _, _ = chain3 () in
  let code = Pytorch_codegen.emit g ~schedule:(Graph.topo_order g) in
  Alcotest.(check bool) "intermediates freed" true
    (contains code (Printf.sprintf "del t%d" r1))

let test_weights_never_deleted () =
  let g = mlp_training ~batch:4 ~hidden:8 () in
  let code = Pytorch_codegen.emit g ~schedule:(Graph.topo_order g) in
  Graph.iter
    (fun n ->
      if Op.is_weight n.op then
        Alcotest.(check bool)
          (Printf.sprintf "weight t%d not deleted" n.id)
          false
          (contains code (Printf.sprintf "del t%d " n.id)
          || contains code (Printf.sprintf "del t%d\n" n.id)))
    g

let test_swap_uses_streams () =
  let b = Builder.create () in
  let x = Builder.input b [ 1024 ] ~dtype:Shape.F32 in
  let r = Builder.relu b x in
  let st = Builder.op b Op.Store [ r ] in
  let ld = Builder.op b Op.Load [ st ] in
  let chain = Builder.tanh_ b r in
  let out = Builder.add b chain ld in
  ignore out;
  let g = Builder.finish b in
  let code = Pytorch_codegen.emit g ~schedule:(Graph.topo_order g) in
  Alcotest.(check bool) "copy stream declared" true
    (contains code "COPY_STREAM = torch.cuda.Stream()");
  Alcotest.(check bool) "swap out on the side stream" true
    (contains code "to(\"cpu\", non_blocking=True)");
  Alcotest.(check bool) "swap in waits for the event" true
    (contains code "_ev.wait()");
  Alcotest.(check bool) "compute waits for the copy stream" true
    (contains code "wait_stream(COPY_STREAM)")

let test_input_specs_cover_inputs () =
  let g = mlp_training ~batch:4 ~hidden:8 () in
  let code = Pytorch_codegen.emit g ~schedule:(Graph.topo_order g) in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "input %d in specs" v)
        true
        (contains code (Printf.sprintf "        %d: (" v)))
    (Graph.inputs g)

(* a small LM, its initial M-state and that state's tree with the
   first enableable fission enabled *)
let lm_with_fission cost =
  let g =
    Transformer.build_lm
      { Transformer.batch = 4; seq_len = 8; hidden = 16; heads = 2;
        layers = 1; vocab = 32; dtype = Shape.F32 }
  in
  let s = Mstate.init ~sched_states:0 cost g in
  match Ftree.mutations_on (Graph_index.of_graph g) s.ftree with
  | (Ftree.Enable i, _) :: _ ->
      (g, s, Option.get (Ftree.apply g s.ftree (Ftree.Enable i)))
  | _ -> Alcotest.fail "no fission to enable"

let test_emit_expanded () =
  let c = cache () in
  let g, s, ftree = lm_with_fission c in
  let code, _ =
    Pytorch_codegen.emit_expanded c ~title:"lm" ~accounted_peak:s.peak_mem g
      ftree ~reschedule:Graph.topo_order
  in
  Alcotest.(check bool) "emits a runnable module" true
    (contains code "def run(inputs")

(** The header of the module [magis_cli codegen] writes states the peak
    of the program as emitted: the simulator's peak on the expanded
    graph under the schedule it is emitted in, beside the accounted
    peak of the state. *)
let test_emit_expanded_states_emitted_peak () =
  let cost = cache () in
  let g, s, ftree = lm_with_fission cost in
  let accounted = (Mstate.evaluate cost g ftree s.schedule).peak_mem in
  let reschedule g' = Reorder.schedule ~max_states:0 g' in
  let code, stated =
    Pytorch_codegen.emit_expanded cost ~title:"lm" ~accounted_peak:accounted
      g ftree ~reschedule
  in
  let expanded = Ftree.realize g ftree in
  Alcotest.(check bool) "a fission was materialized" true
    (Graph.n_nodes expanded > Graph.n_nodes g);
  let emitted = (Simulator.run cost expanded (reschedule expanded)).peak_mem in
  Alcotest.(check int) "stated peak is the emitted program's" emitted stated;
  let states what peak =
    contains code
      (Printf.sprintf "%s peak %.1f MB (%d bytes)" what
         (float_of_int peak /. 1e6) peak)
  in
  Alcotest.(check bool) "header states the emitted peak" true
    (states "emitted" emitted);
  Alcotest.(check bool) "header states the accounted peak" true
    (states "accounted" accounted)

let test_dot_export () =
  let g, x, _, _, j = diamond () in
  let dot = Export.to_dot ~highlight:(int_set [ j ]) g in
  Alcotest.(check bool) "digraph header" true (contains dot "digraph");
  Alcotest.(check bool) "input node present" true
    (contains dot (Printf.sprintf "n%d [label=" x));
  Alcotest.(check bool) "edges present" true (contains dot "->");
  Alcotest.(check bool) "highlight colored" true (contains dot "lightsalmon")

let test_text_export_deterministic () =
  let g = mlp_training ~batch:2 ~hidden:4 () in
  Alcotest.(check string) "stable" (Export.to_text g) (Export.to_text g)

(* the text dump of every Quick model: one line per node, naming each
   node once, with its operator and dtype/shape *)
let test_text_export_covers_nodes () =
  List.iter
    (fun (w : Zoo.workload) ->
      let g = w.build Zoo.Quick in
      let lines =
        String.split_on_char '\n' (Export.to_text g)
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) (w.name ^ ": one line per node") (Graph.n_nodes g)
        (List.length lines);
      let ids = List.map (fun l -> Scanf.sscanf l "%%%d = " Fun.id) lines in
      Alcotest.(check (list int)) (w.name ^ ": ids are the node ids")
        (List.sort compare (Graph.node_ids g))
        (List.sort compare ids);
      List.iter2
        (fun id l ->
          let n = Graph.node g id in
          let prefix =
            Printf.sprintf "%%%d = %s %s (" id (Op.name n.op)
              (Shape.to_string n.shape)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S starts with %S" w.name l prefix)
            true (String.starts_with ~prefix l))
        ids lines)
    Zoo.all

let test_summary () =
  let g = mlp_training ~batch:2 ~hidden:4 () in
  let s = Export.summary g in
  Alcotest.(check bool) "mentions node count" true
    (contains s (Printf.sprintf "nodes: %d" (Graph.n_nodes g)))

let suite =
  [
    tc "emit structure" test_emit_structure;
    tc "schedule order respected" test_emit_covers_schedule_order;
    tc "dead tensors deleted" test_dead_tensors_deleted;
    tc "weights never deleted" test_weights_never_deleted;
    tc "swap uses CUDA streams" test_swap_uses_streams;
    tc "input specs cover inputs" test_input_specs_cover_inputs;
    tc "emit with expanded fissions" test_emit_expanded;
    tc "codegen header states the emitted peak"
      test_emit_expanded_states_emitted_peak;
    tc "dot export" test_dot_export;
    tc "text export deterministic" test_text_export_deterministic;
    tc "text export names every node of every Quick model"
      test_text_export_covers_nodes;
    tc "summary" test_summary;
  ]
