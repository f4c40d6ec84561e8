(** Fission of a self-attention block (the paper's Fig. 4 walk-through).

    Builds the attention sub-graph, prints its D-Graph components (the
    graph-level batch/head/sequence dimensions), constructs the F-Tree,
    and applies a head-dimension fission by hand, comparing memory and
    latency before and after.

    Run with: [dune exec examples/attention_fission.exe] *)

open Magis
module Int_set = Util.Int_set

let () =
  let cost = Op_cost.create Hardware.default in
  let b = Builder.create () in
  let batch = 16 and seq = 64 and hidden = 256 and heads = 8 in
  let x = Builder.input b [ batch; seq; hidden ] ~dtype:Shape.F32 in
  let y =
    Transformer.block b x
      { Transformer.batch; seq_len = seq; hidden; heads; layers = 1;
        vocab = 0 |> max 1; dtype = Shape.F32 }
  in
  ignore y;
  let g = Builder.finish b in
  Fmt.pr "self-attention block: %d operators@." (Graph.n_nodes g);

  (* the D-Graph identifies the graph-level dimensions (Fig. 4c) *)
  let dg = Dgraph.build g in
  let comps = Dgraph.components dg in
  Fmt.pr "D-Graph: %d graph-level dimensions@." (List.length comps);
  List.iteri
    (fun i c ->
      Fmt.pr "  dimension %d runs through %d operators@." i
        (Array.length (Dgraph.nodes c)))
    comps;

  (* baseline profile *)
  let ix = Graph_index.of_graph g in
  let order = Array.to_list (Graph_index.order ix) in
  let base = Simulator.baseline cost ix in
  Fmt.pr "baseline: peak %.1f MB, latency %.3f ms@."
    (float_of_int base.peak_mem /. 1e6)
    (base.latency *. 1e3);

  (* construct the F-Tree from the memory hot-spots (Algorithm 1) *)
  let hot = Lifetime.hotspots base.analysis in
  let ftree = Ftree.construct g ~hotspots:hot in
  Fmt.pr "F-Tree: %d fission candidates@." (Ftree.n_entries ftree);

  (* enable candidates one at a time and report the trade-off *)
  for i = 0 to Ftree.n_entries ftree - 1 do
    let f = Ftree.fission_at ftree i in
    match Ftree.smallest_valid_n g f with
    | None -> ()
    | Some n ->
        let t = Ftree.set_n ftree i n in
        let acc = Ftree.accounting cost ix t in
        let r = Simulator.run ~size_of:acc.size_of ~cost_of:acc.cost_of cost g order in
        Fmt.pr
          "  candidate %d: |S|=%-3d n=%d -> peak %.1f MB (%.0f%%), latency %+.1f%%@."
          i
          (Int_set.cardinal (Fission.members f))
          n
          (float_of_int r.peak_mem /. 1e6)
          (100.0 *. float_of_int r.peak_mem /. float_of_int base.peak_mem)
          (100.0
          *. (r.latency +. acc.extra_latency -. base.latency)
          /. base.latency)
  done;

  (* materialize the best candidate as a real graph rewrite *)
  let best = ref None in
  for i = 0 to Ftree.n_entries ftree - 1 do
    let f = Ftree.fission_at ftree i in
    match Ftree.smallest_valid_n g f with
    | Some n ->
        let members = Int_set.cardinal (Fission.members f) in
        (match !best with
        | Some (m, _, _) when m >= members -> ()
        | _ -> best := Some (members, f, n))
    | None -> ()
  done;
  match !best with
  | None -> Fmt.pr "no valid fission candidate@."
  | Some (_, f, n) ->
      let e = Fission.expand g (Fission.with_n f n) in
      Fmt.pr "expanded the largest candidate: %d -> %d operators@."
        (Graph.n_nodes g)
        (Graph.n_nodes e.graph);
      let order' = Reorder.schedule ~max_states:2_000 e.graph in
      let r = Simulator.run cost e.graph order' in
      Fmt.pr "real expansion: peak %.1f MB, latency %.3f ms@."
        (float_of_int r.peak_mem /. 1e6)
        (r.latency *. 1e3)
