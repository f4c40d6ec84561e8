(** Incremental rescheduling inside the search (the [incr] experiment):
    one iteration-capped latency-mode search of a small transformer LM,
    reporting how much of each produced schedule the windowed
    {!Incremental.reschedule} (Algorithm 2) actually re-placed and how
    often its splice fell back to a full reschedule.

    With [--stats-json] the deterministic counters are written for the
    CI perf-smoke gate.  The [ab_] key prefix is historical: it dates
    from an on/off comparison this experiment no longer runs, and is
    kept so the checked-in baseline keys stay stable. *)

open Magis

let run (env : Common.env) =
  Common.hr "Incremental rescheduling in the search";
  let lm =
    Transformer.build_lm
      { Transformer.batch = 8; seq_len = 32; hidden = 64; heads = 4;
        layers = 2; vocab = 128; dtype = Shape.F32 }
  in
  let config =
    { (Common.search_config env) with
      sim_cache = None;
      time_budget = 1e9;
      max_iterations = min env.iters 30 }
  in
  let r = Search.optimize_latency ~config env.cost ~mem_ratio:0.7 lm in
  Printf.printf
    "lm (%d iterations): best %.1f MB; %d sched fallback(s), %.0f%% of \
     scheduled nodes re-placed (%d of %d)\n"
    r.stats.iterations
    (float_of_int r.best.peak_mem /. 1e6)
    r.stats.n_sched_fallback
    (100.0 *. Search.resched_frac r.stats)
    r.stats.n_resched_nodes r.stats.n_sched_nodes;
  Common.write_stats_json env
    [
      ("ab_iterations", Json.Int r.stats.iterations);
      ("ab_best_peak", Json.Int r.best.peak_mem);
      ("ab_n_sched_fallback", Json.Int r.stats.n_sched_fallback);
      ("ab_n_resched_nodes", Json.Int r.stats.n_resched_nodes);
      ("ab_n_sched_nodes", Json.Int r.stats.n_sched_nodes);
    ]
