(** Resilience overhead: A-B runs of the same iteration-capped search
    measuring what the machinery costs when nothing goes wrong —
    aggressive periodic checkpointing, and a run absorbing transient
    injected faults, each against the plain supervised search.
    Every configuration must return the bit-identical best state; the
    table records the wall-clock price of the guarantees. *)

open Magis

let run (env : Common.env) =
  let w, g = Common.smallest_workload env in
  let iters = min env.iters 30 in
  Common.hr
    (Printf.sprintf "Resilience overhead: %s (%d ops), %d iterations" w.name
       (Graph.n_nodes g) iters);
  let run_one ~label cfg =
    let config =
      cfg
        { (Common.search_config env) with
          time_budget = 1e9; max_iterations = iters; sim_cache = None }
    in
    let t0 = Unix.gettimeofday () in
    let r = Search.optimize_memory ~config env.cost ~overhead:0.10 g in
    (label, r, Unix.gettimeofday () -. t0)
  in
  let supervised = run_one ~label:"supervised (default)" (fun c -> c) in
  let path = Filename.temp_file "magis_bench" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let label, r, wall =
    run_one ~label:"checkpoint every 50ms" (fun c ->
        { c with
          Search.checkpoint =
            Some
              { Search.ckpt_path = path; ckpt_every = 0.05;
                ckpt_resume = false } })
  in
  (* the search writes only its periodic snapshots (none in a run
     shorter than the period); the end state is the caller's save *)
  let periodic = r.stats.n_checkpoints in
  let t0 = Unix.gettimeofday () in
  let r = Search.save r in
  let save_s = Unix.gettimeofday () -. t0 in
  let checkpointed = (label, r, wall +. save_s) in
  let ckpt_bytes = (Unix.stat path).st_size in
  (* transient faults at the simulator site, planted past the prologue
     that runs outside the candidate expansion (baseline simulation +
     initial state) *)
  Fault.observe ();
  let _ = run_one ~label:"observe" (fun c -> c) in
  let v = Fault.visits "simulator" in
  Fault.disarm ();
  Fault.arm
    (Fault.seeded ~seed:7 ~lo:(max 4 (v / 4)) ~hi:(max 5 (3 * v / 4))
       [ ("simulator", Fault.Exception); ("simulator", Fault.Exception);
         ("simulator", Fault.Exception) ]);
  let faulted = run_one ~label:"3 transient faults" (fun c -> c) in
  let fired = List.length (Fault.fired ()) in
  Fault.disarm ();
  let runs = [ supervised; checkpointed; faulted ] in
  let _, base, base_wall = List.hd runs in
  Printf.printf "%-24s %9s %9s %10s %8s %12s\n" "" "Wall(s)" "vs base"
    "Peak(MB)" "Retried" "Quarantined";
  List.iter
    (fun (label, (r : Search.result), wall) ->
      Printf.printf "%-24s %9.2f %8.1f%% %10.1f %8d %12d\n" label wall
        (100.0 *. (wall -. base_wall) /. base_wall)
        (float_of_int r.best.peak_mem /. 1e6)
        r.stats.n_retried r.stats.n_quarantined)
    runs;
  Printf.printf
    "checkpoints: %d periodic, 1 final save (%.1f ms, %.1f KB); faults \
     fired: %d\n"
    periodic (save_s *. 1e3)
    (float_of_int ckpt_bytes /. 1e3)
    fired;
  List.iter
    (fun (label, (r : Search.result), _) ->
      if
        r.best.peak_mem <> base.best.peak_mem
        || r.best.latency <> base.best.latency
      then
        Printf.printf "DIVERGED: %s returned %.1f MB / %.3f ms\n" label
          (float_of_int r.best.peak_mem /. 1e6)
          (r.best.latency *. 1e3))
    runs;
  Printf.printf "identical best across all configurations: %b\n"
    (List.for_all
       (fun (_, (r : Search.result), _) ->
         r.best.peak_mem = base.best.peak_mem
         && r.best.latency = base.best.latency)
       runs)
