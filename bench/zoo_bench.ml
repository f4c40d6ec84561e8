(** The same-behaviour gate (the [zoo] experiment).  Under an iteration
    cap the search is deterministic, so a fixed table of capped searches
    pins down what it does: a change that keeps every key of
    [bench/baselines/zoo.json] keeps every best state, history and
    counter below.

    Cases, in order: the smallest workload in memory mode (10%, 25
    iterations), a 2-layer LM in latency mode (0.7, 30 iterations), then
    each Table 2 model in memory mode (10%) and latency mode (0.8) at
    caps 8 and 40.  Quick scale, the caps and a time budget of [1e9]
    (only the caps end a run) are fixed: [--iters], [--budget] and
    [--full] are ignored.  Each case runs with no simulation cache
    ([nocache]), cold on one cache the whole round shares in case order
    ([cold]), and as a warm replay over that cache ([warm]).

    Keys: [<case>_<field>] for the no-cache run's {!summary} (with
    [<case>_limit_met], {!Search.limit_met}),
    [<case>_<pass>_<counter>] for every [Search.counts] entry of every
    pass, [<case>_<pass>_same] for whether a cached pass's summary
    equals the no-cache one, and [<case>_warm_replayed_all] for whether
    the warm pass stored no record in the cache, so replayed its
    initial state and the refresh and the children of every pop it
    ran.  At the end of the round, [shared_cache_entries],
    [shared_cache_pops] and [shared_cache_pop_bytes] size the shared
    cache: its evaluations, its pop and initial-state records and their
    bytes.  64-bit values are hex
    strings. *)

open Magis

type case = {
  name : string;
  graph : Graph.t;
  cap : int;
  search : config:Search.config -> Op_cost.t -> Graph.t -> Search.result;
}

let memory overhead ~config cost g =
  Search.optimize_memory ~config cost ~overhead g

let latency mem_ratio ~config cost g =
  Search.optimize_latency ~config cost ~mem_ratio g

let cases env =
  let env = { env with Common.scale = Zoo.Quick } in
  let lm =
    Transformer.build_lm
      { Transformer.batch = 8; seq_len = 32; hidden = 64; heads = 4;
        layers = 2; vocab = 128; dtype = Shape.F32 }
  in
  { name = "par"; graph = snd (Common.smallest_workload env); cap = 25;
    search = memory 0.10 }
  :: { name = "incr"; graph = lm; cap = 30; search = latency 0.7 }
  :: List.concat_map
       (fun (w : Zoo.workload) ->
         let graph = Common.workload_graph env w
         and model = String.lowercase_ascii w.name in
         List.concat_map
           (fun (mode, search) ->
             List.map
               (fun cap ->
                 let name = Printf.sprintf "%s_%s_%d" model mode cap in
                 { name; graph; cap; search })
               [ 8; 40 ])
           [ ("mem", memory 0.10); ("lat", latency 0.8) ])
       Zoo.all

let hex x = Json.String (Printf.sprintf "%016Lx" x)

(** What a run returns, less its timings: the best and initial peaks,
    the best state's exact latency, graph, F-Tree and schedule, the
    history's (peak, latency) points, and the degradation steps and
    diagnostics it reported. *)
let summary (r : Search.result) =
  let b = r.best in
  let points =
    List.fold_left
      (fun h (_elapsed, peak, lat) ->
        Util.hash_combine
          (Util.hash_combine h (Int64.of_int peak))
          (Int64.bits_of_float lat))
      0L r.history
  in
  [ ("best_peak", Json.Int b.peak_mem);
    ("initial_peak", Json.Int r.initial.peak_mem);
    ("best_latency_bits", hex (Int64.bits_of_float b.latency));
    ("best_wl_hash", hex (Wl_hash.hash b.graph));
    ("best_ftree_fp", hex (Ftree.fingerprint b.ftree));
    ("best_schedule_digest", hex (Util.hash_int_list b.schedule));
    ("history_len", Json.Int (List.length r.history));
    ("history_digest", hex points);
    ("degrade_steps", Json.Int (List.length r.stats.degrade_steps));
    ("diagnostics", Json.Int (List.length r.diagnostics));
    ("limit_met", Json.Bool (Search.limit_met r)) ]

let run (env : Common.env) =
  Common.hr "Same-behaviour gate: capped searches, three cache settings";
  Printf.printf "%-18s %5s %10s %12s %12s %6s\n" "case" "iters" "best MB"
    "cold hit/miss" "warm hit/miss" "same";
  let shared = Sim_cache.create () in
  let fields =
    List.map
      (fun c ->
        let go sim_cache =
          let config = { Search.default_config with
                         time_budget = 1e9; max_iterations = c.cap; sim_cache } in
          c.search ~config env.cost c.graph in
        let nocache = go None in
        let cold = go (Some shared) in
        let before = Sim_cache.record_stats shared in
        let warm = go (Some shared) in
        let replayed_all = Sim_cache.record_stats shared = before in
        let base = summary nocache in
        let key k = c.name ^ "_" ^ k in
        let counts pass (r : Search.result) =
          List.map (fun (k, n) -> (key (pass ^ "_" ^ k), Json.Int n))
            (Search.counts r.stats) in
        let cold_same = summary cold = base
        and warm_same = summary warm = base in
        let hm (r : Search.result) =
          Printf.sprintf "%d/%d" r.stats.n_sim_hit r.stats.n_sim_miss in
        Printf.printf "%-18s %5d %10.1f %12s %12s %6b\n%!" c.name
          nocache.stats.iterations
          (float_of_int nocache.best.peak_mem /. 1e6)
          (hm cold) (hm warm) (cold_same && warm_same);
        let flags =
          [ (key "cold_same", cold_same); (key "warm_same", warm_same);
            (key "warm_replayed_all", replayed_all) ] in
        ( List.map (fun (k, v) -> (key k, v)) base
          @ counts "nocache" nocache @ counts "cold" cold @ counts "warm" warm
          @ List.map (fun (k, b) -> (k, Json.Bool b)) flags,
          List.for_all snd flags ))
      (cases env)
  in
  let pops, pop_bytes = Sim_cache.record_stats shared in
  Common.write_stats_json env
    (List.concat_map fst fields
    @ [ ("shared_cache_entries", Json.Int (Sim_cache.length shared));
        ("shared_cache_pops", Json.Int pops);
        ("shared_cache_pop_bytes", Json.Int pop_bytes) ]);
  if not (List.for_all snd fields) then
    failwith "a cached pass diverged from the no-cache pass, or a warm one \
              rebuilt a refresh or an expansion"
