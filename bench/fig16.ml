(** Figure 16: case study — execution time and memory usage along one
    UNet training iteration for unoptimized PyTorch, MAGIS-1 (peak capped
    at 80% of PyTorch's) and MAGIS-2 (capped at 60%).  Prints
    (elapsed ms, live GB) series sampled along the schedule. *)

open Magis

let timeline env g (s : Mstate.t option) ~label =
  let cost = env.Common.cost in
  let schedule, size_of, cost_of =
    match s with
    | None ->
        ( Graph.topo_order g,
          (fun v -> Lifetime.default_size g v),
          fun v -> Op_cost.node_cost cost g v )
    | Some s ->
        let acc = Ftree.accounting cost (Graph_index.of_graph s.graph) s.ftree in
        (s.schedule, acc.size_of, acc.cost_of)
  in
  let graph = match s with None -> g | Some s -> s.graph in
  let res = Simulator.run ~size_of ~cost_of cost graph schedule in
  let mem = Lifetime.timeline res.analysis in
  let costs = List.map cost_of schedule in
  let n = Array.length mem in
  let sample = max 1 (n / 24) in
  Printf.printf "%-9s" label;
  let t = ref 0.0 in
  List.iteri
    (fun i c ->
      t := !t +. c;
      if i mod sample = 0 || i = n - 1 then
        Printf.printf " (%.0f, %.2f)" (!t *. 1e3)
          (float_of_int mem.(i) /. 1e9))
    costs;
  Printf.printf "\n  -> peak %.2f GB, latency %.1f ms\n"
    (float_of_int res.peak_mem /. 1e9)
    (res.latency *. 1e3)

let run (env : Common.env) =
  let w = Zoo.find "UNet" in
  let g = Common.workload_graph env w in
  Common.hr
    (Printf.sprintf
       "Figure 16: execution time & memory usage, UNet (batch=%d) — (ms, GB) series"
       w.batch);
  timeline env g None ~label:"PyTorch";
  let config = Common.search_config env in
  List.iter
    (fun (label, ratio) ->
      let r = Search.optimize_latency ~config env.cost ~mem_ratio:ratio g in
      timeline env g (Some r.best) ~label)
    [ ("MAGIS-1", 0.8); ("MAGIS-2", 0.6) ]
