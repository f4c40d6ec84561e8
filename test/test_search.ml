open Magis
open Helpers

let subject () =
  Transformer.build_lm
    { Transformer.batch = 8; seq_len = 32; hidden = 64; heads = 4;
      layers = 2; vocab = 128; dtype = Shape.F32 }

(* verify_states: every M-state the search accepts is run through the
   IR verifier and schedule checker (cheap at test scale) *)
let config budget =
  { Search.default_config with
    time_budget = budget; max_iterations = 200; verify_states = true }

let test_memory_mode_respects_constraint () =
  let c = cache () in
  let g = subject () in
  let base = Simulator.run c g (Graph.program_order g) in
  let r = Search.optimize_memory ~config:(config 2.0) c ~overhead:0.10 g in
  Alcotest.(check bool) "peak reduced" true (r.best.peak_mem < base.peak_mem);
  Alcotest.(check bool) "latency within 10%" true
    (r.best.latency <= base.latency *. 1.10 *. 1.0001);
  Alcotest.(check bool) "schedule valid" true
    (is_valid_order r.best.graph r.best.schedule)

let test_latency_mode_respects_constraint () =
  let c = cache () in
  let g = subject () in
  let base = Simulator.run c g (Graph.program_order g) in
  (* state verification roughly halves search throughput; give this
     constraint-tightest test a correspondingly larger budget (the
     iteration cap, not the wall clock, bounds it on fast machines) *)
  let r = Search.optimize_latency ~config:(config 16.0) c ~mem_ratio:0.7 g in
  let limit = int_of_float (float_of_int base.peak_mem *. 0.7) in
  Alcotest.(check bool) "memory within 70%" true (r.best.peak_mem <= limit);
  Alcotest.(check bool) "schedule valid" true
    (is_valid_order r.best.graph r.best.schedule)

let test_better_than_ordering () =
  let mk peak lat : Mstate.t =
    { graph = Graph.empty; ftree = Ftree.empty; schedule = [];
      peak_mem = peak; latency = lat; hotspots = Util.Int_set.empty;
      ftree_stale = false }
  in
  let mode = Search.Min_latency { mem_limit = 100 } in
  (* both under the limit: latency decides *)
  Alcotest.(check bool) "latency decides under limit" true
    (Search.better_than mode (mk 80 1.0) (mk 90 2.0));
  (* over the limit: memory decides *)
  Alcotest.(check bool) "memory decides over limit" true
    (Search.better_than mode (mk 150 5.0) (mk 200 1.0));
  (* under beats over *)
  Alcotest.(check bool) "under beats over" true
    (Search.better_than mode (mk 100 9.0) (mk 101 1.0))

let test_history_monotone () =
  let c = cache () in
  let g = subject () in
  let r = Search.optimize_memory ~config:(config 2.0) c ~overhead:0.10 g in
  (* the recorded history of bests never regresses in the objective *)
  let rec check = function
    | (_, p1, _) :: ((_, p2, _) :: _ as rest) ->
        Alcotest.(check bool) "peak non-increasing" true (p2 <= p1);
        check rest
    | _ -> ()
  in
  check r.history;
  Alcotest.(check bool) "history non-empty" true (r.history <> [])

let test_stats_populated () =
  let c = cache () in
  let g = subject () in
  let r = Search.optimize_memory ~config:(config 1.0) c ~overhead:0.10 g in
  let st = r.stats in
  Alcotest.(check bool) "iterations > 0" true (st.iterations > 0);
  Alcotest.(check bool) "transforms counted" true (st.n_transform > 0);
  Alcotest.(check bool) "schedules counted" true (st.n_sched > 0);
  Alcotest.(check bool) "simulations counted" true (st.n_simul > 0);
  Alcotest.(check bool) "hashes counted" true (st.n_hash > 0)

let test_ablation_settings_run () =
  let c = cache () in
  let g = subject () in
  List.iter
    (fun ablation ->
      let config = { (config 0.6) with ablation } in
      let r = Search.optimize_memory ~config c ~overhead:0.10 g in
      Alcotest.(check bool) "valid best schedule" true
        (is_valid_order r.best.graph r.best.schedule))
    [
      { Search.default_ablation with use_ftree_heuristic = false };
      { Search.default_ablation with restrict_sched_rules = false };
      { Search.default_ablation with max_level = 2 };
      { Search.default_ablation with max_level = 8 };
    ]

let test_deterministic () =
  let c = cache () in
  let g = subject () in
  let cfg = { (config 1e9) with max_iterations = 25 } in
  let r1 = Search.optimize_memory ~config:cfg c ~overhead:0.10 g in
  let r2 = Search.optimize_memory ~config:cfg c ~overhead:0.10 g in
  Alcotest.(check int) "same peak with iteration-bounded budget"
    r1.best.peak_mem r2.best.peak_mem

let test_latency_history_improves () =
  let c = cache () in
  let g = subject () in
  let base = Simulator.run c g (Graph.program_order g) in
  let r = Search.optimize_latency ~config:(config 2.0) c ~mem_ratio:0.8 g in
  let limit = int_of_float (float_of_int base.peak_mem *. 0.8) in
  (* once the budget is met, recorded bests have non-increasing latency *)
  let feasible =
    List.filter (fun (_, p, _) -> p <= limit) r.history
  in
  let rec check = function
    | (_, _, l1) :: ((_, _, l2) :: _ as rest) ->
        Alcotest.(check bool) "latency non-increasing" true (l2 <= l1 +. 1e-12);
        check rest
    | _ -> ()
  in
  check feasible

(* The trajectory fingerprint keys checkpoints and on-disk frontier
   caches, so a change silently invalidates every existing file.  Values
   computed before the bound-probe and cheap-tier knobs were retired:
   their flag bits must stay folded in at the old defaults. *)
let test_fingerprint_pinned () =
  let g = (Zoo.find "unet").build Zoo.Quick in
  let hw = Hardware.fingerprint Hardware.default in
  Alcotest.(check int64) "default config, frontier mode"
    (-4539850962203501870L)
    (Search.trajectory_fingerprint Search.default_config
       Frontier_build.sweep_mode ~hw g);
  Alcotest.(check int64) "sched_states 64, latency mode"
    (-7106213506255474268L)
    (Search.trajectory_fingerprint
       { Search.default_config with sched_states = 64 }
       (Search.Min_latency { mem_limit = 1000 }) ~hw g)

(* A poll that stops at iteration k cuts the run exactly where an
   iteration cap of k does: same best state, but flagged interrupted.
   The poll is outside the trajectory fingerprint. *)
let test_poll_stop_equals_cap () =
  let g = subject () in
  let mode = Search.Min_memory { lat_limit = infinity } in
  let k = 5 in
  let cfg = { (config 1e9) with max_iterations = 25 } in
  let capped =
    Search.run ~config:{ cfg with max_iterations = k } (cache ()) mode g
  in
  let seen = ref [] in
  let poll ~iteration ~(best : Mstate.t) =
    seen := (iteration, best.peak_mem) :: !seen;
    if iteration >= k then `Stop else `Continue
  in
  let polled = Search.run ~config:{ cfg with poll } (cache ()) mode g in
  Alcotest.(check int) "same iteration count" capped.stats.iterations
    polled.stats.iterations;
  Alcotest.(check int) "same best peak" capped.best.peak_mem
    polled.best.peak_mem;
  Alcotest.(check (float 0.0)) "same best latency" capped.best.latency
    polled.best.latency;
  Alcotest.(check (list int)) "same best schedule" capped.best.schedule
    polled.best.schedule;
  Alcotest.(check bool) "the cap is a normal finish" false capped.interrupted;
  Alcotest.(check bool) "the poll's stop is an interrupt" true
    polled.interrupted;
  Alcotest.(check (list int)) "polled once before every pop, then stopped"
    (List.init (k + 1) Fun.id)
    (List.rev_map fst !seen);
  Alcotest.(check int) "the last poll saw the returned best"
    polled.best.peak_mem (snd (List.hd !seen));
  let hw = Hardware.fingerprint Hardware.default in
  Alcotest.(check int64) "poll outside the trajectory fingerprint"
    (Search.trajectory_fingerprint cfg mode ~hw g)
    (Search.trajectory_fingerprint { cfg with poll } mode ~hw g)

let suite =
  [
    tc "memory mode respects constraint" test_memory_mode_respects_constraint;
    tc "latency-mode history improves" test_latency_history_improves;
    tc "latency mode respects constraint" test_latency_mode_respects_constraint;
    tc "BetterThan ordering" test_better_than_ordering;
    tc "history monotone" test_history_monotone;
    tc "stats populated" test_stats_populated;
    tc "ablation settings run" test_ablation_settings_run;
    tc "deterministic under iteration budget" test_deterministic;
    tc "trajectory fingerprint pinned" test_fingerprint_pinned;
    tc "a poll stop at k equals an iteration cap of k"
      test_poll_stop_equals_cap;
  ]
