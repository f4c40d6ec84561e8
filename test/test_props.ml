(** Property-based tests (QCheck): random DNNs, random schedules, random
    fission parameters — checking the invariants the optimizer relies on. *)

open Magis
module Int_set = Util.Int_set

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(** Random layered DAG of elementwise/add ops over one input: every graph
    the generator produces is a valid computation graph. *)
let gen_layered_graph =
  QCheck2.Gen.(
    let* n_layers = int_range 2 6 in
    let* width = int_range 1 4 in
    let* seed = int_range 0 10_000 in
    return (n_layers, width, seed))

let build_layered (n_layers, width, seed) =
  let rng = Random.State.make [| seed |] in
  let b = Builder.create () in
  let x = Builder.input b [ 64 ] ~dtype:Shape.F32 in
  let prev = ref [ x ] in
  for _ = 1 to n_layers do
    let layer =
      List.init width (fun _ ->
          let pick l = List.nth l (Random.State.int rng (List.length l)) in
          match Random.State.int rng 3 with
          | 0 -> Builder.relu b (pick !prev)
          | 1 -> Builder.tanh_ b (pick !prev)
          | _ ->
              let a = pick !prev and c = pick !prev in
              Builder.add b a c)
    in
    prev := layer
  done;
  let out =
    List.fold_left
      (fun acc v -> Builder.add b acc v)
      (List.hd !prev) (List.tl !prev)
  in
  ignore out;
  Builder.finish b

let graph_arb =
  QCheck2.Gen.map build_layered gen_layered_graph

let count = 60

let prop name gen f = QCheck2.Test.make ~name ~count gen f

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let topo_is_valid =
  prop "topo_order is always a valid order" graph_arb (fun g ->
      Helpers.is_valid_order g (Graph.topo_order g))

let greedy_is_valid =
  prop "greedy schedule is always a valid order" graph_arb (fun g ->
      let size_of v = Lifetime.default_size g v in
      let members = Int_set.of_list (Graph.node_ids g) in
      Helpers.is_valid_order g (Reorder.greedy_schedule ~size_of g members))

let schedule_members_partition_valid =
  prop "partitioned schedule is valid" graph_arb (fun g ->
      let order = Reorder.schedule ~max_states:300 g in
      Helpers.is_valid_order g order)

let wl_hash_stable_under_rebuild =
  prop "WL hash is deterministic" gen_layered_graph (fun params ->
      Wl_hash.hash (build_layered params) = Wl_hash.hash (build_layered params))

let lifetime_peak_bounds =
  prop "peak bounded by total bytes and by largest tensor" graph_arb (fun g ->
      let order = Graph.topo_order g in
      let a = Lifetime.analyze g order in
      let peak = Lifetime.peak_memory a in
      let total =
        Graph.fold (fun n acc -> acc + Shape.size_bytes n.shape) g 0
      in
      let largest =
        Graph.fold (fun n acc -> max acc (Shape.size_bytes n.shape)) g 0
      in
      peak <= total && peak >= largest)

let dp_never_worse_than_greedy =
  prop "DP schedule never worse than greedy" graph_arb (fun g ->
      let size_of v = Lifetime.default_size g v in
      let members = Int_set.of_list (Graph.node_ids g) in
      match Reorder.dp_schedule ~max_states:20_000 ~size_of g members with
      | None -> true (* budget exhausted: nothing to compare *)
      | Some dp ->
          let greedy = Reorder.greedy_schedule ~size_of g members in
          let peak o = Lifetime.peak_memory (Lifetime.analyze g o) in
          Helpers.is_valid_order g dp && peak dp <= peak greedy)

let dominator_subtree_convex =
  prop "dominator strict subtrees are convex sub-graphs" graph_arb (fun g ->
      let t = Dominator.compute g in
      Graph.fold
        (fun n acc ->
          acc
          &&
          let sub = Dominator.strict_subtree t n.id in
          Int_set.is_empty sub || Graph.is_convex g sub)
        g true)

let fission_expansion_preserves_outputs =
  (* batch fission of a dense training step: expansion keeps the output
     count and every replacement keeps its shape *)
  prop "fission expansion preserves interfaces"
    QCheck2.Gen.(int_range 1 50)
    (fun seed ->
      let batch = 4 * (1 + (seed mod 4)) in
      let g = (fun () ->
          let b = Builder.create () in
          let x = Builder.input b [ batch; 8 ] ~dtype:Shape.F32 in
          let w = Builder.weight b [ 8; 8 ] ~dtype:Shape.F32 in
          let h = Builder.relu b (Builder.dense b x w) in
          let loss = Builder.sum_loss b h in
          Autodiff.backward (Builder.finish b) ~loss) ()
      in
      let x =
        List.find
          (fun v -> (Graph.node g v).label = "x")
          (Graph.inputs g)
      in
      let dg = Dgraph.build g in
      match
        List.find_opt
          (fun c -> Dgraph.mem c { Dgraph.node = x; dim = 1 })
          (Dgraph.components dg)
      with
      | None -> false
      | Some comp -> (
          let members =
            Int_set.filter
              (fun v -> not (Op.is_input (Graph.op g v)))
              (Int_set.of_list (Array.to_list (Dgraph.nodes comp)))
          in
          match Dgraph.restrict comp members with
          | None -> false
          | Some dims ->
              let f = { Fission.members; dims; n = 2 } in
              (match Fission.validate (Graph_index.of_graph g) f with
              | Error _ -> false
              | Ok () ->
                  let e = Fission.expand g f in
                  List.length (Graph.outputs e.graph)
                  = List.length (Graph.outputs g)
                  && Util.Int_map.for_all
                       (fun old_id new_id ->
                         Shape.equal_dims (Graph.shape g old_id)
                           (Graph.shape e.graph new_id))
                       e.replacements)))

let incremental_schedule_valid =
  prop "incremental schedule valid after random swap insertion" graph_arb
    (fun g ->
      let schedule = Graph.topo_order g in
      (* swap the largest intermediate *)
      let candidates =
        List.filter
          (fun v ->
            (not (Op.is_input (Graph.op g v))) && Graph.out_degree g v > 0)
          (Graph.node_ids g)
      in
      match candidates with
      | [] -> true
      | v :: _ -> (
          match Graph.suc g v with
          | [] -> true
          | c :: _ ->
              let g', store = Graph.add g Op.Store [ v ] in
              let g', load = Graph.add g' Op.Load [ store ] in
              let g' = Graph.replace_input g' ~node_id:c ~old_src:v ~new_src:load in
              let size_of u = Lifetime.default_size g' u in
              let order, _ =
                Incremental.reschedule ~max_states:20_000
                  ~parent:(Incremental.parent (Graph_index.of_graph g) schedule) ~new_index:(Graph_index.of_graph g')
                  ~mutated_old:(Int_set.of_list [ v; c ])
                  ~size_of ()
              in
              Helpers.is_valid_order g' order))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      topo_is_valid;
      greedy_is_valid;
      schedule_members_partition_valid;
      wl_hash_stable_under_rebuild;
      lifetime_peak_bounds;
      dp_never_worse_than_greedy;
      dominator_subtree_convex;
      fission_expansion_preserves_outputs;
      incremental_schedule_valid;
    ]
