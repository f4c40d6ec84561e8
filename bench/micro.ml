(** Micro-benchmarks (Bechamel) of the framework's core primitives:
    graph hashing, topological ordering, lifetime analysis, DP scheduling,
    fission accounting and D-Graph construction.  These are the inner
    loops whose costs appear in the Fig. 15 breakdown. *)

open Magis
open Bechamel
open Toolkit

let tests (env : Common.env) =
  let g = Common.workload_graph env (Zoo.find "BERT-base") in
  let order = Graph.topo_order g in
  let members = Util.Int_set.of_list (Graph.node_ids g) in
  let size_of v = Lifetime.default_size g v in
  let analysis = Lifetime.analyze g order in
  let hotspots = Lifetime.hotspots analysis in
  let ftree = Ftree.construct g ~hotspots in
  [
    Test.make ~name:"wl_hash" (Staged.stage (fun () -> Wl_hash.hash g));
    Test.make ~name:"topo_order" (Staged.stage (fun () -> Graph.topo_order g));
    Test.make ~name:"lifetime" (Staged.stage (fun () -> Lifetime.analyze g order));
    Test.make ~name:"simulate"
      (Staged.stage (fun () -> Simulator.run env.cost g order));
    Test.make ~name:"dominator" (Staged.stage (fun () -> Dominator.compute g));
    Test.make ~name:"dgraph" (Staged.stage (fun () -> Dgraph.build g));
    Test.make ~name:"partition"
      (Staged.stage (fun () -> Partition.partition g members));
    Test.make ~name:"greedy_schedule"
      (Staged.stage (fun () -> Reorder.greedy_schedule ~size_of g members));
    Test.make ~name:"ftree_construct"
      (Staged.stage (fun () -> Ftree.construct g ~hotspots));
    Test.make ~name:"ftree_accounting"
      (Staged.stage (fun () -> Ftree.accounting env.cost (Graph_index.of_graph g) ftree));
  ]

let run (env : Common.env) =
  Common.hr "Micro-benchmarks (Bechamel, monotonic clock)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ t ] -> Printf.printf "%-20s %12.1f us/run\n" name (t /. 1e3)
          | _ -> Printf.printf "%-20s (no estimate)\n" name)
        analyzed)
    (tests env)
