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
  let base = Simulator.run c g (Graph.topo_order g) in
  let r = Search.optimize_memory ~config:(config 2.0) c ~overhead:0.10 g in
  Alcotest.(check bool) "peak reduced" true (r.best.peak_mem < base.peak_mem);
  Alcotest.(check bool) "latency within 10%" true
    (r.best.latency <= base.latency *. 1.10 *. 1.0001);
  Alcotest.(check bool) "schedule valid" true
    (is_valid_order r.best.graph r.best.schedule)

let test_latency_mode_respects_constraint () =
  let c = cache () in
  let g = subject () in
  let base = Simulator.run c g (Graph.topo_order g) in
  (* state verification roughly halves search throughput; give this
     constraint-tightest test a correspondingly larger budget (the
     iteration cap, not the wall clock, bounds it on fast machines) *)
  let r = Search.optimize_latency ~config:(config 16.0) c ~mem_ratio:0.7 g in
  let limit = int_of_float (float_of_int base.peak_mem *. 0.7) in
  Alcotest.(check bool) "memory within 70%" true (r.best.peak_mem <= limit);
  Alcotest.(check bool) "schedule valid" true
    (is_valid_order r.best.graph r.best.schedule)

let test_better_than_ordering () =
  let mk peak lat = (peak, lat) in
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
  let base = Simulator.run c g (Graph.topo_order g) in
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

(* What a run returns, less its timings: the best state and the
   history's (peak, latency) points. *)
let outcome (r : Search.result) =
  ( (r.best.peak_mem, Int64.bits_of_float r.best.latency, r.best.schedule),
    (Wl_hash.hash r.best.graph, Ftree.fingerprint r.best.ftree),
    List.map (fun (_, p, l) -> (p, l)) r.history )

(* [Search.counts] less the counters a cache's hits move *)
let counts_but_cache (r : Search.result) =
  List.filter
    (fun (n, _) ->
      not
        (List.mem n
           [ "sim_hits"; "sim_misses"; "sched_fallbacks"; "resched_nodes";
             "sched_nodes"; "refresh_replays"; "expansion_replays";
             "init_replays" ]))
    (Search.counts r.stats)

let replays (r : Search.result) =
  List.assoc "refresh_replays" (Search.counts r.stats)

let expansion_replays (r : Search.result) =
  List.assoc "expansion_replays" (Search.counts r.stats)

(* A search run again over the cache its first run filled takes every
   stale pop's F-Tree from the pop's record instead of rebuilding it
   (under [verify_states], each replayed record is checked against a
   rebuild and the hashes computed afresh) and returns what the first
   run returned.  The stale pops are counted from the warm run's
   trace.  The first run replays nothing: dedup skips every state whose
   key it could meet again. *)
let test_warm_search_replays_refreshes () =
  let g = subject () and sim = Sim_cache.create () in
  let cfg = { (config 1e9) with max_iterations = 25; sim_cache = Some sim } in
  let run () = Search.optimize_memory ~config:cfg (cache ()) ~overhead:0.10 g in
  let cold = run () in
  let warm, stale_pops =
    Fun.protect ~finally:Trace.clear @@ fun () ->
    Trace.enable ();
    let warm = run () in
    ( warm,
      List.length
        (List.filter
           (fun (e : Trace.event) ->
             e.name = "pop" && List.assoc_opt "stale" e.args = Some "true")
           (Trace.events ())) )
  in
  Alcotest.(check bool) "same best state and history" true
    (outcome cold = outcome warm);
  Alcotest.(check (list (pair string int))) "same counters but the cache's"
    (counts_but_cache cold) (counts_but_cache warm);
  Alcotest.(check int) "the cold run replays nothing" 0 (replays cold);
  Alcotest.(check bool) "the warm run pops a stale state" true
    (stale_pops > 0);
  Alcotest.(check int) "the warm run replays every stale pop's refresh"
    stale_pops (replays warm)

(* A search run again over the cache its first run filled replays every
   pop's record (under [verify_states], each replay is checked against
   the refresh and hashes computed afresh) and returns what the first
   run returned, storing no record.  A pop with a quarantined hash
   stores no record, neither its tree nor its codes, and the cache it
   leaves serves a later clean run that equals a cacheless one. *)
let test_warm_search_replays_expansions () =
  let g = subject () and sim = Sim_cache.create () in
  let cfg sim_cache =
    { (config 1e9) with max_iterations = 25; sim_cache }
  in
  let run sim_cache =
    Search.optimize_memory ~config:(cfg sim_cache) (cache ()) ~overhead:0.10 g
  in
  let cold = run (Some sim) in
  let ((records, _) as stored) = Sim_cache.record_stats sim in
  let warm = run (Some sim) in
  Alcotest.(check bool) "same best state and history" true
    (outcome cold = outcome warm);
  Alcotest.(check (list (pair string int))) "same counters but the cache's"
    (counts_but_cache cold) (counts_but_cache warm);
  Alcotest.(check int) "the cold run replays no pop" 0 (expansion_replays cold);
  Alcotest.(check int)
    "the cold run stores a record per pop and its initial state's"
    (cold.stats.iterations + 1) records;
  Alcotest.(check int) "the warm run replays every pop" warm.stats.iterations
    (expansion_replays warm);
  Alcotest.(check (pair int int)) "the warm run stores no record" stored
    (Sim_cache.record_stats sim);
  Sim_cache.clear sim;
  Alcotest.(check (pair int int)) "clear drops the records" (0, 0)
    (Sim_cache.record_stats sim);
  (* the first pop's first proposal keeps failing to hash: its first
     try, then the retry loop's run and its three re-executions *)
  let faulty =
    Fun.protect ~finally:Fault.disarm @@ fun () ->
    Fault.arm (Fault.burst ~site:"candidate" ~at:1 ~len:5 Fault.Exception);
    run (Some sim)
  in
  Alcotest.(check int) "one hash quarantined" 1 faulty.stats.n_quarantined;
  (* every pop's record but the quarantined one's, and the initial
     state's *)
  Alcotest.(check int) "the quarantined pop stores no record"
    faulty.stats.iterations
    (fst (Sim_cache.record_stats sim));
  let clean = run (Some sim) and none = run None in
  Alcotest.(check bool) "the clean run replays a stored record" true
    (expansion_replays clean > 0);
  Alcotest.(check bool) "the clean run does not replay the quarantined pop"
    true (expansion_replays clean < clean.stats.iterations);
  Alcotest.(check bool) "a clean run on that cache equals a cacheless one" true
    (outcome clean = outcome none);
  Alcotest.(check (list (pair string int)))
    "a clean run on that cache counts as a cacheless one"
    (counts_but_cache none) (counts_but_cache clean)

(* Every input of the pop key is part of it: searches that differ only
   in one input share one cache, and each returns what its own
   cacheless search returns.  A record replayed under a key that missed
   an input shows as a different trajectory or, under [verify_states],
   as a failed check: a key without [max_level] shows only as the
   latter, one without [use_sweep_rules] as both.  The rule knob is
   varied on ViT-base, where it changes the proposals enough for that
   to show (on UNet a key without [use_sweep_rules] went unnoticed).
   Searches with and without the F-Tree heuristic never pop the same
   unrefreshed tree (constructed or naive), so that row passes with or
   without the refresh bit in the key. *)
let test_pop_key_inputs () =
  let ablation f c = { c with Search.ablation = f c.Search.ablation } in
  let rows =
    [ ( "UNet", "max_level",
        [ ("3", ablation (fun a -> { a with max_level = 3 }));
          ("4", ablation (fun a -> { a with max_level = 4 })) ] );
      ( "ViT-base", "use_sweep_rules",
        [ ("true", fun c -> { c with Search.use_sweep_rules = true });
          ("false", fun c -> { c with Search.use_sweep_rules = false }) ] );
      ( "UNet", "use_ftree_heuristic",
        [ ("true", ablation (fun a -> { a with use_ftree_heuristic = true }));
          ("false", ablation (fun a -> { a with use_ftree_heuristic = false }))
        ] ) ]
  in
  List.iter
    (fun (model, name, values) ->
      let g = (Zoo.find model).build Zoo.Quick and sim = Sim_cache.create () in
      let run ?sim_cache knob =
        let config =
          knob
            { Search.default_config with
              time_budget = 1e9; max_iterations = 12; sim_cache;
              verify_states = true }
        in
        Search.optimize_memory ~config (cache ()) ~overhead:0.10 g
      in
      List.iter
        (fun (value, knob) ->
          let shared = run ~sim_cache:sim knob and none = run knob in
          let what = Printf.sprintf "%s %s %s" model name value in
          Alcotest.(check bool) (what ^ ": same best state and history") true
            (outcome shared = outcome none);
          Alcotest.(check (list (pair string int)))
            (what ^ ": same counters but the cache's")
            (counts_but_cache none) (counts_but_cache shared))
        values)
    rows

let built (r : Search.result) = List.assoc "built" (Search.counts r.stats)

(* A warm repeat ranks each cache hit on its cached (peak, latency) and
   builds a rewrite child only when it pops it or accepts it as the
   best (without [verify_states], which builds every child of a
   replayed pop to check its record), and returns what the cold run
   returned, which built every rewrite it proposed. *)
let test_warm_repeat_builds_lazily () =
  let g = subject () and sim = Sim_cache.create () in
  let config =
    { Search.default_config with
      time_budget = 1e9; max_iterations = 25; sim_cache = Some sim }
  in
  let run () = Search.optimize_memory ~config (cache ()) ~overhead:0.10 g in
  let cold = run () in
  let warm = run () in
  let counts r = List.remove_assoc "built" (counts_but_cache r) in
  Alcotest.(check bool) "same best state and history" true
    (outcome cold = outcome warm);
  Alcotest.(check (list (pair string int)))
    "same counters but the cache's and the builds" (counts cold) (counts warm);
  Alcotest.(check int) "the warm run replays every pop" warm.stats.iterations
    (expansion_replays warm);
  Alcotest.(check int) "the warm run misses nothing" 0 warm.stats.n_sim_miss;
  let accepted = List.length warm.history - 1 in
  Alcotest.(check bool)
    (Printf.sprintf "warm builds %d <= %d pops + %d accepted bests"
       (built warm) warm.stats.iterations accepted)
    true
    (built warm <= warm.stats.iterations + accepted);
  Alcotest.(check bool) "the cold run builds more" true
    (built cold > built warm)

let init_replays (r : Search.result) =
  List.assoc "init_replays" (Search.counts r.stats)

(* An initial state, field by field: its schedule, peak, latency bits,
   hot spots, F-Tree fingerprint and every F-Tree entry. *)
let initial_state (r : Search.result) =
  let s = r.initial in
  let module S = Util.Int_set in
  let entry i =
    let e = Ftree.entry s.ftree i in
    ( (S.elements e.fission.members, Util.Int_map.bindings e.fission.dims),
      (e.fission.n, e.parent, e.children) )
  in
  ( (s.schedule, s.peak_mem, Int64.bits_of_float s.latency, S.elements s.hotspots),
    Ftree.fingerprint s.ftree,
    List.init (Ftree.n_entries s.ftree) entry )

(* A search over a cache an earlier search of the same model filled
   reads its initial state back, and that state is bit for bit the one
   a cacheless search builds, in either mode. *)
let test_warm_initial_state () =
  let g = subject () in
  List.iter
    (fun (what, search) ->
      let sim = Sim_cache.create () in
      let run sim_cache =
        search
          ~config:{ (config 1e9) with max_iterations = 2; sim_cache }
          (cache ()) g
      in
      let fresh = run None in
      let cold = run (Some sim) in
      let warm = run (Some sim) in
      Alcotest.(check (list int)) (what ^ ": read back only when warm") [ 0; 0; 1 ]
        (List.map init_replays [ fresh; cold; warm ]);
      Alcotest.(check bool) (what ^ ": the warm initial state is the fresh one")
        true
        (initial_state warm = initial_state fresh);
      Alcotest.(check bool) (what ^ ": same best state and history") true
        (outcome warm = outcome fresh))
    [ ("memory mode", fun ~config -> Search.optimize_memory ~config ~overhead:0.10);
      ("latency mode", fun ~config -> Search.optimize_latency ~config ~mem_ratio:0.8) ]

(* The initial record holds no mode and no limit: a latency search run
   after a memory search of one model on one cache reads the memory
   search's initial state back. *)
let test_mode_pair_shares_initial_state () =
  let g = subject () and sim = Sim_cache.create () in
  let config = { (config 1e9) with max_iterations = 8; sim_cache = Some sim } in
  let mem = Search.optimize_memory ~config (cache ()) ~overhead:0.10 g in
  let lat = Search.optimize_latency ~config (cache ()) ~mem_ratio:0.8 g in
  Alcotest.(check (pair int int)) "the second search reads init_replays = 1"
    (0, 1) (init_replays mem, init_replays lat);
  let none =
    Search.optimize_latency ~config:{ config with sim_cache = None } (cache ())
      ~mem_ratio:0.8 g
  in
  Alcotest.(check bool) "the latency search returns its cacheless result" true
    (outcome lat = outcome none)

(* Every input of the initial record's key is part of it, and nothing
   else: each row changes one thing of a search and says whether the
   changed search shares the unchanged one's key.  Both then run, in
   that order, on one cache under [verify_states]: the second reads the
   first's initial state back exactly when they share the key, and
   returns what its own cacheless search returns.  A renumbered node
   keeps the graph's WL hash, which dedup reads, but not the key. *)
let test_init_key_inputs () =
  let g = subject () in
  let renumbered =
    (* the last node: no operand and no position in the order moves *)
    let v = List.hd (List.rev (Graph.topo_order g)) in
    let g', v' =
      Graph.add_copy g v (Array.to_list (Graph.node g v).inputs)
    in
    Graph.remove (Graph.redirect g' ~from_:v ~to_:v') v
  in
  let rewired =
    (* a node reading two distinct same-shaped operands now reads the
       second twice; the first keeps another consumer *)
    let c, a, b =
      List.find_map
        (fun (n : Graph.node) ->
          match n.inputs with
          | [| a; b |]
            when a <> b
                 && Shape.equal (Graph.shape g a) (Graph.shape g b)
                 && Graph.out_degree g a > 1 ->
              Some (n.id, a, b)
          | _ -> None)
        (Graph.nodes g)
      |> Option.get
    in
    Graph.replace_input g ~node_id:c ~old_src:a ~new_src:b
  in
  let lat_limit =
    (Simulator.baseline (cache ()) (Graph_index.of_graph g)).latency *. 1.1
  in
  let base =
    ( { (config 1e9) with max_iterations = 3 },
      Search.Min_memory { lat_limit },
      Hardware.default,
      g )
  in
  let ablation f (c : Search.config) = { c with ablation = f c.ablation } in
  let knob f (c, m, hw, g) = (f c, m, hw, g) in
  let rows =
    [ ("hardware", false, fun (c, m, _, g) -> (c, m, Hardware.a100, g));
      ("max_level", false, knob (ablation (fun a -> { a with max_level = 3 })));
      ("sched_states", false, knob (fun c -> { c with Search.sched_states = 64 }));
      ( "use_ftree_heuristic", false,
        knob (ablation (fun a -> { a with use_ftree_heuristic = false })) );
      ("a node's id", false, fun (c, m, hw, _) -> (c, m, hw, renumbered));
      ("a node's operand", false, fun (c, m, hw, _) -> (c, m, hw, rewired));
      ( "the mode", true,
        fun (c, _, hw, g) -> (c, Search.Min_latency { mem_limit = 0 }, hw, g) );
      ( "the limit", true,
        fun (c, _, hw, g) ->
          (c, Search.Min_memory { lat_limit = 2.0 *. lat_limit }, hw, g) ) ]
  in
  let key (c, _, hw, g) =
    let ix = Graph_index.of_graph g in
    Search.init_key c ~hw:(Hardware.fingerprint hw) ix (Wl_hash.labels_on ix)
  in
  let run ?sim_cache (c, m, hw, g) =
    Search.run ~config:{ c with Search.sim_cache } (Op_cost.create hw) m g
  in
  Alcotest.(check bool) "a renumbered node keeps the WL hash" true
    (Wl_hash.hash renumbered = Wl_hash.hash g);
  List.iter
    (fun (what, shares, change) ->
      let changed = change base and sim = Sim_cache.create () in
      Alcotest.(check bool)
        (Printf.sprintf "changing %s %s the key" what
           (if shares then "keeps" else "changes"))
        shares
        (key changed = key base);
      ignore (run ~sim_cache:sim base : Search.result);
      let second = run ~sim_cache:sim changed and none = run changed in
      Alcotest.(check int) (what ^ ": the second search's init_replays")
        (Bool.to_int shares) (init_replays second);
      Alcotest.(check bool) (what ^ ": the second search's cacheless result")
        true
        (outcome second = outcome none))
    rows

(* Under [verify_states] a replayed initial state is recomputed and
   compared: a record that decodes but is not the input's raises.  The
   wrong record is the naive-fission search's initial state, stored
   under the key of the default search of the same model. *)
let test_wrong_init_record_raises () =
  let g = subject () and sim = Sim_cache.create () in
  let hw = Hardware.fingerprint Hardware.default in
  let cfg = { (config 1e9) with max_iterations = 2; sim_cache = Some sim } in
  let naive =
    { cfg with ablation = { cfg.ablation with use_ftree_heuristic = false } }
  in
  let ix = Graph_index.of_graph g in
  let key c = Search.init_key c ~hw ix (Wl_hash.labels_on ix) in
  let mode = Search.Min_memory { lat_limit = infinity } in
  ignore (Search.run ~config:naive (cache ()) mode g : Search.result);
  ignore (Search.run ~config:cfg (cache ()) mode g : Search.result);
  let wrong = Option.get (Sim_cache.record sim (key naive)) in
  Alcotest.(check bool) "the two initial records differ" true
    (Sim_cache.record sim (key cfg) <> Some wrong);
  let sim' = Sim_cache.create () in
  Sim_cache.add_record sim' (key cfg) wrong;
  match
    Search.run ~config:{ cfg with sim_cache = Some sim' } (cache ()) mode g
  with
  | _ -> Alcotest.fail "a wrong initial record was replayed unchecked"
  | exception Search.Verification_failure _ -> ()

(* A latency-mode search whose best misses its memory limit says so:
   ViT-base at 8 iterations and ratio 0.8 returns 464.7 MB against a
   462.3 MB limit; a memory-mode UNet meets its limit. *)
let test_limit_met () =
  let c = cache () in
  let cfg = { Search.default_config with time_budget = 1e9; max_iterations = 8 } in
  let vit = (Zoo.find "vit-base").build Zoo.Quick in
  let r = Search.optimize_latency ~config:cfg c ~mem_ratio:0.8 vit in
  (match r.mode with
  | Search.Min_latency { mem_limit } ->
      Alcotest.(check bool) "ViT-base's best is over its limit" true
        (r.best.peak_mem > mem_limit)
  | Search.Min_memory _ -> Alcotest.fail "latency mode expected");
  Alcotest.(check bool) "ViT-base at 0.8: limit not met" false
    (Search.limit_met r);
  let unet = (Zoo.find "UNet").build Zoo.Quick in
  Alcotest.(check bool) "UNet at +10%: limit met" true
    (Search.limit_met (Search.optimize_memory ~config:cfg c ~overhead:0.10 unet))

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
    tc "a warm search replays its refreshes" test_warm_search_replays_refreshes;
    tc "a warm search replays its expansions"
      test_warm_search_replays_expansions;
    tc "every input of the pop key is part of it" test_pop_key_inputs;
    tc "a result says whether it met its limit" test_limit_met;
    tc "a warm repeat builds only the children it pops or accepts"
      test_warm_repeat_builds_lazily;
    tc "a warm search starts from the fresh initial state"
      test_warm_initial_state;
    tc "a memory and a latency search share the initial state"
      test_mode_pair_shares_initial_state;
    tc "every input of the initial key is part of it" test_init_key_inputs;
    tc "a wrong initial record raises under verify_states"
      test_wrong_init_record_raises;
  ]
