(** Parallel expansion and simulation-cache speedup (the scaling axis
    the paper's Fig. 15 breakdown motivates): A-B runs of the same
    iteration-capped search on the smallest Table-2 workload.

    Three configurations, all required to return bit-identical best
    states:

    - [jobs=1], cold simulation cache — the legacy serial baseline;
    - [jobs=N], no cache — domain-pool scaling (bounded by the
      machine's core count: on a single-core container this is ~1×);
    - [jobs=N], warm cache — a replay over the baseline's cache, where
      every evaluation short-circuits both rescheduling and simulation.

    The wall-clock table and the identical-best check are printed so CI
    and EXPERIMENTS.md can record them. *)

open Magis

let run (env : Common.env) =
  let w, g = Common.smallest_workload env in
  let iters = min env.iters 40 in
  let jobs = max 2 env.jobs in
  Common.hr
    (Printf.sprintf
       "Parallel expansion & simulation cache: %s (%d ops), %d iterations"
       w.name (Graph.n_nodes g) iters);
  Printf.printf "cores visible to the runtime: %d\n"
    (Domain.recommended_domain_count ());
  let run_one ~label ~jobs ~sim =
    let config =
      { (Common.search_config env) with
        time_budget = 1e9; max_iterations = iters; jobs;
        sim_cache = sim }
    in
    let t0 = Unix.gettimeofday () in
    let r = Search.optimize_memory ~config env.cost ~overhead:0.10 g in
    let wall = Unix.gettimeofday () -. t0 in
    (label, r, wall)
  in
  let cold_serial = Some (Sim_cache.create ()) in
  (* sequence explicitly: the warm replay must run after the serial run
     has filled [cold_serial] *)
  let serial = run_one ~label:"jobs=1, cold cache" ~jobs:1 ~sim:cold_serial in
  let par_cold =
    run_one ~label:(Printf.sprintf "jobs=%d, no cache" jobs) ~jobs ~sim:None
  in
  let warm =
    run_one ~label:(Printf.sprintf "jobs=%d, warm cache" jobs) ~jobs
      ~sim:cold_serial
  in
  let warm_serial =
    run_one ~label:"jobs=1, warm cache" ~jobs:1 ~sim:cold_serial
  in
  let runs = [ serial; par_cold; warm; warm_serial ] in
  let _, base, base_wall = List.hd runs in
  Printf.printf "%-22s %10s %10s %12s %12s\n" "" "Wall(s)" "Speedup"
    "Cache hits" "Cache miss";
  List.iter
    (fun (label, (r : Search.result), wall) ->
      Printf.printf "%-22s %10.2f %9.2fx %12d %12d\n" label wall
        (base_wall /. wall) r.stats.n_sim_hit r.stats.n_sim_miss)
    runs;
  let identical =
    List.for_all
      (fun (_, (r : Search.result), _) ->
        r.best.peak_mem = base.best.peak_mem
        && r.best.latency = base.best.latency
        && r.best.schedule = base.best.schedule)
      runs
  in
  Printf.printf
    "identical best across all runs: %b (peak %.1f MB, latency %.2f ms)\n"
    identical
    (float_of_int base.best.peak_mem /. 1e6)
    (base.best.latency *. 1e3);
  let _, par_run, _ = List.nth runs 1 in
  Printf.printf "per-domain busy seconds (jobs=%d, no cache): [%s]\n" jobs
    (String.concat "; "
       (Array.to_list
          (Array.map (Printf.sprintf "%.2f") par_run.stats.domain_time)));
  let _, serial_run, serial_wall = serial in
  let _, warm_run, warm_wall = warm in
  Common.write_stats_json env
    [
      ("par_identical", Json.Bool identical);
      ("par_iterations", Json.Int serial_run.stats.iterations);
      ("par_best_peak", Json.Int base.best.peak_mem);
      ("par_serial_sim_hits", Json.Int serial_run.stats.n_sim_hit);
      ("par_serial_sim_misses", Json.Int serial_run.stats.n_sim_miss);
      ("par_cold_sim_hits", Json.Int par_run.stats.n_sim_hit);
      ("par_cold_sim_misses", Json.Int par_run.stats.n_sim_miss);
      ("par_warm_sim_hits", Json.Int warm_run.stats.n_sim_hit);
      ("par_warm_sim_misses", Json.Int warm_run.stats.n_sim_miss);
      (* timing keys: reported, not gated *)
      ("wall_serial_s", Json.Float serial_wall);
      ("wall_warm_s", Json.Float warm_wall);
      ("speedup_warm", Json.Float (serial_wall /. warm_wall));
    ];
  if not identical then failwith "parallel/serial best states diverged"
