(** Frontier service (the [frontier] experiment): one harvesting search
    sweeps a workload's whole memory–latency Pareto frontier; the cached
    frontier then answers an 8-step budget ladder with zero further
    searches.

    Everything printed under a counter key is deterministic — the search
    is iteration-capped, serial and uncached — and gated exactly by the
    CI frontier-smoke job against [bench/baselines/frontier.json]:

    - harvesting must be trajectory-invisible: the best state of a
      harvesting run must be bit-identical to a plain run's;
    - the frontier's point/harvest/prune/evict counters;
    - a save/load round-trip through the on-disk cache must preserve
      every point and answer the ladder identically with zero searches;
    - the hardware zoo: five registered profiles with five distinct
      fingerprints, and the batch-sweep helper's graph sizes. *)

open Magis

let run (env : Common.env) =
  Common.hr "Frontier: one search, a whole Pareto frontier";
  let t0 = Unix.gettimeofday () in
  let w = Zoo.find "UNet" in
  let g = Common.workload_graph env w in
  let iters = min env.iters 12 in
  let config = { Search.default_config with max_iterations = iters } in
  let mode = Frontier_build.sweep_mode in
  let hw = Hardware.default in

  (* A/B: the harvest hook must not perturb the search trajectory *)
  let plain = Search.run ~config (Op_cost.create hw) mode g in
  let fr, harvested = Frontier_build.build ~config (Op_cost.create hw) mode g in
  let ab_identical =
    plain.Search.best.Mstate.peak_mem = harvested.Search.best.Mstate.peak_mem
    && plain.Search.best.Mstate.latency = harvested.Search.best.Mstate.latency
    && plain.Search.best.Mstate.schedule = harvested.Search.best.Mstate.schedule
  in
  Printf.printf "harvest A/B: best %s (plain %.1f MB, harvested %.1f MB)\n"
    (if ab_identical then "bit-identical" else "DIVERGED")
    (float_of_int plain.Search.best.Mstate.peak_mem /. 1e6)
    (float_of_int harvested.Search.best.Mstate.peak_mem /. 1e6);

  (* one search swept this many states into this many frontier points *)
  let c = Frontier.counters fr in
  Printf.printf
    "frontier: %d points (of %d harvested; %d pruned, %d evicted)\n"
    (Frontier.size fr) c.Frontier.harvested c.Frontier.pruned
    c.Frontier.evicted;

  (* the cached frontier answers a budget ladder with zero searches *)
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "magis-frontier-bench-%d" (Unix.getpid ()))
  in
  let key = Frontier_build.key ~config mode ~hw g in
  Frontier_cache.save ~dir ~key fr;
  let reloaded =
    match Frontier_cache.load ~dir ~key with
    | Some r -> r
    | None -> failwith "frontier bench: cache miss right after save"
  in
  let roundtrip_identical = Frontier.points reloaded = Frontier.points fr in
  let ladder = [ 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ] in
  let answers =
    List.map (fun ratio -> Frontier_build.query_ratio reloaded ~ratio) ladder
  in
  let feasible = List.length (List.filter Option.is_some answers) in
  let ladder_matches_original =
    answers = List.map (fun r -> Frontier_build.query_ratio fr ~ratio:r) ladder
  in
  List.iter2
    (fun ratio ans ->
      match ans with
      | Some (p : Frontier.point) ->
          Printf.printf "  budget %.2f: %.1f MB / %.2f ms\n" ratio
            (float_of_int p.Frontier.peak /. 1e6)
            (p.Frontier.latency *. 1e3)
      | None -> Printf.printf "  budget %.2f: infeasible\n" ratio)
    ladder answers;
  Printf.printf "%d/%d budgets feasible from the cache, 0 extra searches\n"
    feasible (List.length ladder);

  (* hardware zoo: named profiles, all-field fingerprints, batch sweep *)
  let fps = List.map Hardware.fingerprint Hardware.profiles in
  let distinct = List.length (List.sort_uniq compare fps) in
  Printf.printf "hardware zoo: %d profiles (%s), %d distinct fingerprints\n"
    (List.length Hardware.profiles)
    (String.concat ", " Hardware.names)
    distinct;
  let sweep = Zoo.batch_sweep w ~batches:[ 1; 2; 4 ] in
  let sweep_nodes =
    List.map (fun (sw : Zoo.workload) -> Graph.n_nodes (sw.build env.scale))
      sweep
  in
  List.iter2
    (fun (sw : Zoo.workload) n ->
      Printf.printf "  %s batch %d: %d nodes\n" sw.name sw.batch n)
    sweep sweep_nodes;

  Common.write_stats_json env
    ([ ("n_nodes", Json.Int (Graph.n_nodes g));
       ("searches", Json.Int 1);
       ("harvest_ab_identical", Json.Bool ab_identical);
       ("points", Json.Int (Frontier.size fr));
       ("harvested", Json.Int c.Frontier.harvested);
       ("pruned", Json.Int c.Frontier.pruned);
       ("evicted", Json.Int c.Frontier.evicted);
       ("roundtrip_identical", Json.Bool roundtrip_identical);
       ("ladder_matches_original", Json.Bool ladder_matches_original);
       ("queries", Json.Int (List.length ladder));
       ("feasible", Json.Int feasible);
       ("hw_profiles", Json.Int (List.length Hardware.profiles));
       ("hw_fingerprints_distinct", Json.Int distinct) ]
    @ List.map2
        (fun (sw : Zoo.workload) n ->
          (Printf.sprintf "sweep_nodes_b%d" sw.Zoo.batch, Json.Int n))
        sweep sweep_nodes
    @ [ ("wall_s", Json.Float (Unix.gettimeofday () -. t0)) ])
