(** The simulation cache: its keying, its accounting under two
    concurrent domains (the daemon's default worker count), and what a
    search gets from a shared cache, a private one and none.  Also the
    retired [jobs] field: the search is one serial loop and refuses any
    other value. *)

open Magis
open Helpers

(* ------------------------------------------------------------------ *)
(* Simulation cache                                                    *)
(* ------------------------------------------------------------------ *)

let mk_key ?(state = 11L) ?(parent_sched = 22L) ?(mutated = 33L)
    ?(sched_states = 0) ?(hw = 44L) () =
  Sim_cache.key ~state ~parent_sched ~mutated ~sched_states ~hw

let a_value =
  { Sim_cache.schedule = [ 0; 1; 2 ]; peak_mem = 640; latency = 0.25;
    hotspots = [ 1; 2 ] }

let test_sim_cache_hit_after_identical_key () =
  let c = Sim_cache.create () in
  Alcotest.(check bool) "cold miss" true (Sim_cache.find c (mk_key ()) = None);
  Sim_cache.add c (mk_key ()) a_value;
  (match Sim_cache.find c (mk_key ()) with
  | None -> Alcotest.fail "identical key must hit"
  | Some v ->
      Alcotest.(check (list int)) "schedule round-trips" [ 0; 1; 2 ] v.schedule;
      Alcotest.(check int) "peak round-trips" 640 v.peak_mem);
  Alcotest.(check (pair int int)) "one hit, one miss" (1, 1)
    (Sim_cache.stats c);
  Sim_cache.reset_stats c;
  Alcotest.(check (pair int int)) "counters reset" (0, 0) (Sim_cache.stats c);
  Alcotest.(check int) "one entry" 1 (Sim_cache.length c)

let test_sim_cache_miss_after_rewrite () =
  (* a rewrite changes the WL hash, hence the [state] digest *)
  let c = Sim_cache.create () in
  Sim_cache.add c (mk_key ~state:11L ()) a_value;
  Alcotest.(check bool) "rewritten graph misses" true
    (Sim_cache.find c (mk_key ~state:12L ()) = None)

let test_sim_cache_hw_budget_isolation () =
  let c = Sim_cache.create () in
  Sim_cache.add c (mk_key ()) a_value;
  Alcotest.(check bool) "other hardware misses" true
    (Sim_cache.find c (mk_key ~hw:45L ()) = None);
  Alcotest.(check bool) "other DP budget misses" true
    (Sim_cache.find c (mk_key ~sched_states:100 ()) = None)

(** The key leaves the mode and its limit out, because no evaluation
    reads them: the first pop's candidates, evaluated by a search under
    either mode at either of two limits, give the values the first
    search stored under the same keys.  Each later search hits on every
    survivor, adds no entry, and sees (through [harvest]) exactly the
    values a cacheless search in its own mode computes. *)
let test_sim_cache_value_independent_of_mode () =
  let g = (Zoo.find "UNet").build Zoo.Quick in
  let cost = cache () in
  let base = Simulator.run cost g (Graph.topo_order g) in
  let modes =
    [
      Search.Min_memory { lat_limit = base.latency *. 1.10 };
      Search.Min_memory { lat_limit = base.latency *. 1.02 };
      Search.Min_latency { mem_limit = base.peak_mem * 8 / 10 };
      Search.Min_latency { mem_limit = base.peak_mem * 6 / 10 };
    ]
  in
  let values ?sim_cache mode =
    let seen = ref [] in
    let config =
      { Search.default_config with
        max_iterations = 1; time_budget = 1e9; sim_cache;
        harvest =
          Some (fun ~iteration:_ s -> seen := Mstate.to_cached s :: !seen) }
    in
    let r = Search.run ~config cost mode g in
    (r, List.rev !seen)
  in
  let sim = Sim_cache.create () in
  let first, stored = values ~sim_cache:sim (List.hd modes) in
  let entries = Sim_cache.length sim in
  Alcotest.(check bool) "the first search stores its survivors" true
    (entries > 0 && entries = first.stats.n_sim_miss);
  List.iteri
    (fun i mode ->
      let what = Printf.sprintf "mode %d" i in
      let r, shared = values ~sim_cache:sim mode in
      let _, fresh = values mode in
      Alcotest.(check int) (what ^ ": every survivor hits") entries
        r.stats.n_sim_hit;
      Alcotest.(check int) (what ^ ": no miss") 0 r.stats.n_sim_miss;
      Alcotest.(check int) (what ^ ": no new entry") entries
        (Sim_cache.length sim);
      Alcotest.(check bool) (what ^ ": the stored values") true
        (shared = stored);
      Alcotest.(check bool) (what ^ ": equal to a fresh evaluation") true
        (fresh = stored))
    modes

(** A stored value comes back equal (schedule, peak, latency bits, hot
    spots), and re-adding its key replaces it. *)
let stored_value_round_trips =
  let open QCheck2.Gen in
  let value =
    map
      (fun (schedule, peak_mem, latency, hotspots) ->
        { Sim_cache.schedule; peak_mem; latency; hotspots })
      (quad (small_list small_nat) int float (small_list small_nat))
  in
  QCheck2.Test.make ~name:"sim cache stores values and re-adds replace"
    ~count:200
    (triple (map Int64.of_int int) value value)
    (fun (k, a, b) ->
      let same (v : Sim_cache.value) (w : Sim_cache.value) =
        v.schedule = w.schedule && v.peak_mem = w.peak_mem
        && Int64.equal (Int64.bits_of_float v.latency)
             (Int64.bits_of_float w.latency)
        && v.hotspots = w.hotspots
      in
      let c = Sim_cache.create () in
      let back () = Option.get (Sim_cache.find c k) in
      Sim_cache.add c k a;
      let first = back () in
      Sim_cache.add c k b;
      same a first && same b (back ()) && Sim_cache.length c = 1)

(** Stress the cache's concurrent find/add accounting: two domains, the
    daemon's default worker count, race find-then-add over 64 colliding
    keys.  Hit/miss counters are atomic, so after the storm
    [hits + misses] must equal the exact number of finds issued — a
    lost increment fails the check — and every key must hold the value
    derived from it. *)
let test_sim_cache_concurrent_accounting () =
  let c = Sim_cache.create () in
  let n = 4_000 and keys = 64 in
  let key_of k = mk_key ~state:(Int64.of_int k) () in
  let value_of k =
    { Sim_cache.schedule = [ k; k + 1 ]; peak_mem = k * 13;
      latency = float_of_int k; hotspots = [ k ] }
  in
  (* domain [d] issues the finds [i] with [i mod 2 = d]; a failed check
     inside a domain re-raises at its join *)
  let storm d () =
    for i = 0 to n - 1 do
      if i mod 2 = d then
        let k = i mod keys in
        match Sim_cache.find c (key_of k) with
        | Some v ->
            if v.peak_mem <> k * 13 || v.schedule <> [ k; k + 1 ] then
              Alcotest.failf "key %d returned another key's value" k
        | None -> Sim_cache.add c (key_of k) (value_of k)
    done
  in
  List.iter Domain.join [ Domain.spawn (storm 0); Domain.spawn (storm 1) ];
  let hits, misses = Sim_cache.stats c in
  Alcotest.(check int) "every find accounted exactly once" n (hits + misses);
  Alcotest.(check bool) "each key missed at least once" true (misses >= keys);
  Alcotest.(check int) "one binding per key" keys (Sim_cache.length c);
  for k = 0 to keys - 1 do
    match Sim_cache.find c (key_of k) with
    | None -> Alcotest.failf "key %d lost" k
    | Some v ->
        if v.peak_mem <> k * 13 || v.hotspots <> [ k ] then
          Alcotest.failf "key %d holds a foreign value" k
  done

let test_hardware_fingerprint () =
  Alcotest.(check bool) "fingerprint is stable" true
    (Hardware.fingerprint Hardware.rtx3090
    = Hardware.fingerprint Hardware.rtx3090);
  Alcotest.(check bool) "devices are distinguished" true
    (Hardware.fingerprint Hardware.rtx3090
    <> Hardware.fingerprint Hardware.mobile)

(* ------------------------------------------------------------------ *)
(* Searches with and without a cache                                   *)
(* ------------------------------------------------------------------ *)

let randnet seed =
  Randnet.build
    ~cfg:
      { Randnet.cells = 1; nodes_per_cell = 4; channels = 8; image = 8;
        batch = 2; seed }
    ()

let run_with ?sim_cache g =
  let config =
    { Search.default_config with
      max_iterations = 12; time_budget = 1e9; sim_cache }
  in
  Search.optimize_memory ~config (cache ()) ~overhead:0.10 g

let check_same_best what (r1 : Search.result) (r2 : Search.result) =
  Alcotest.(check int)
    (what ^ ": identical peak memory")
    r1.best.peak_mem r2.best.peak_mem;
  Alcotest.(check (float 0.0))
    (what ^ ": identical latency")
    r1.best.latency r2.best.latency;
  Alcotest.(check (list int))
    (what ^ ": identical schedule")
    r1.best.schedule r2.best.schedule;
  Alcotest.(check bool)
    (what ^ ": structurally identical graph")
    true
    (Wl_hash.equal_structure r1.best.graph r2.best.graph)

let points (r : Search.result) = List.map (fun (_, p, l) -> (p, l)) r.history

let test_shared_sim_cache_short_circuits () =
  let g = randnet 1 in
  let sim = Sim_cache.create () in
  let r1 = run_with ~sim_cache:sim g in
  Alcotest.(check int) "cold run has no hits" 0 r1.stats.n_sim_hit;
  Alcotest.(check bool) "cold run fills the cache" true
    (r1.stats.n_sim_miss > 0 && Sim_cache.length sim > 0);
  (* an identical search over a warm cache replays the trajectory
     without a single reschedule or simulation *)
  let r2 = run_with ~sim_cache:sim g in
  check_same_best "warm replay" r1 r2;
  Alcotest.(check int) "warm run never misses" 0 r2.stats.n_sim_miss;
  Alcotest.(check int) "warm run never reschedules" 0 r2.stats.n_sched;
  Alcotest.(check int) "warm run never simulates" 0 r2.stats.n_simul;
  Alcotest.(check bool) "warm run only hits" true (r2.stats.n_sim_hit > 0);
  (* a search at another limit shares the early states: it hits, and it
     finds what a cacheless search at that limit finds *)
  let g = (Zoo.find "UNet").build Zoo.Quick in
  let sim = Sim_cache.create () in
  let at ?sim_cache mem_ratio =
    let config =
      { Search.default_config with
        max_iterations = 12; time_budget = 1e9; sim_cache }
    in
    Search.optimize_latency ~config (cache ()) ~mem_ratio g
  in
  ignore (at ~sim_cache:sim 0.8 : Search.result);
  let shared = at ~sim_cache:sim 0.7 in
  let none = at 0.7 in
  Alcotest.(check bool) "another limit hits" true (shared.stats.n_sim_hit > 0);
  check_same_best "another limit" shared none;
  Alcotest.(check (list (pair int (float 0.0))))
    "another limit: same history" (points none) (points shared);
  Alcotest.(check int) "another limit: same iterations" none.stats.iterations
    shared.stats.iterations;
  Alcotest.(check int) "another limit: every survivor probed once"
    none.stats.n_sim_miss
    (shared.stats.n_sim_hit + shared.stats.n_sim_miss)

(** A search given no cache keys nothing and probes nothing (the
    [sim_cache] fault site is never visited), and it returns what a
    search with a private cache returns: a cache no other search fills
    never hits, because dedup already skips every state whose hash, a
    part of every key, the search has seen. *)
let test_no_cache_probes_nothing () =
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  List.iter
    (fun (what, g) ->
      Fault.observe ();
      let none = run_with g in
      Alcotest.(check int) (what ^ ": no probe") 0 (Fault.visits "sim_cache");
      Fault.disarm ();
      let priv = run_with ~sim_cache:(Sim_cache.create ()) g in
      check_same_best what priv none;
      Alcotest.(check (list (pair int (float 0.0))))
        (what ^ ": same history") (points priv) (points none);
      Alcotest.(check (list (pair string int)))
        (what ^ ": same counters") (Search.counts priv.stats)
        (Search.counts none.stats);
      Alcotest.(check int) (what ^ ": no hit") 0 none.stats.n_sim_hit)
    [ ("Randnet", randnet 2); ("UNet", (Zoo.find "UNet").build Zoo.Quick) ]

(** A replay over a fully warm cache evaluates nothing, so it builds no
    rescheduling context: its only operator-cost queries are those of
    its initial state, and its [reschedule] stage reads 0. *)
let test_warm_replay_builds_no_resched_context () =
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  List.iter
    (fun (name, g) ->
      let cost = cache () in
      let mode = Search.Min_memory { lat_limit = infinity } in
      let config sim =
        { Search.default_config with
          max_iterations = 8; time_budget = 1e9; sim_cache = Some sim }
      in
      let sim = Sim_cache.create () in
      let cold = Search.run ~config:(config sim) cost mode g in
      Fault.observe ();
      ignore (Mstate.init ~sched_states:0 cost g : Mstate.t);
      let init_queries = Fault.visits "op_cost" in
      Fault.observe ();
      let warm = Search.run ~config:(config sim) cost mode g in
      let queries = Fault.visits "op_cost" in
      Fault.disarm ();
      check_same_best (name ^ ": warm replay") cold warm;
      Alcotest.(check int) (name ^ ": every survivor hits") 0
        warm.stats.n_sim_miss;
      Alcotest.(check int) (name ^ ": only the initial state's cost queries")
        init_queries queries;
      Alcotest.(check (float 0.0)) (name ^ ": no reschedule stage") 0.0
        (List.assoc "reschedule" (Search.stage_seconds warm.stats)))
    [ ("Randnet", randnet 3); ("UNet", (Zoo.find "UNet").build Zoo.Quick) ]

(** [jobs] is retired: any value but 1 is refused before the search
    starts. *)
let test_jobs_retired () =
  let g = randnet 1 in
  Alcotest.check_raises "jobs = 2 is refused"
    (Invalid_argument "Search.run: config.jobs is retired and must be 1")
    (fun () ->
      ignore
        (Search.run
           ~config:{ Search.default_config with jobs = 2 }
           (cache ()) (Search.Min_memory { lat_limit = infinity }) g
          : Search.result))

let suite =
  QCheck_alcotest.to_alcotest stored_value_round_trips
  :: [
    tc "sim cache hits identical key" test_sim_cache_hit_after_identical_key;
    tc "sim cache concurrent accounting stress"
      test_sim_cache_concurrent_accounting;
    tc "sim cache misses after rewrite" test_sim_cache_miss_after_rewrite;
    tc "sim cache hw/budget isolation" test_sim_cache_hw_budget_isolation;
    tc "sim cache value independent of mode"
      test_sim_cache_value_independent_of_mode;
    tc "hardware fingerprint" test_hardware_fingerprint;
    tc "shared sim cache short-circuits a replay"
      test_shared_sim_cache_short_circuits;
    tc "a search with no cache probes nothing" test_no_cache_probes_nothing;
    tc "a warm replay builds no rescheduling context"
      test_warm_replay_builds_no_resched_context;
    tc "a search refuses jobs other than 1" test_jobs_retired;
  ]
