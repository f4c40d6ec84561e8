(** Workload [search-zoo]: the optimizer as a compile step, in process.

    Every Table 2 model at [Quick] scale is optimized in both modes
    (memory under a latency-overhead bound, latency under a peak-memory
    ratio) with a fixed iteration cap, one search domain and a fresh
    [Op_cost] and private [Sim_cache] per search, for a fixed number of
    rounds in a seeded order.  Between searches, frontier queries are
    answered from the on-disk frontier cache the way [magis_cli frontier]
    answers them.  No daemon runs. *)

open Magis
module M = Measure

let iterations = 8
let overhead = 0.10
let mem_ratio = 0.95
let setup_repeats = 15
let queries_per_model = 4

(* Nominal seconds of one round of searches; sets how many rounds a run
   of [--seconds] does.  A constant, so the work of a run never depends
   on how fast the host happens to be. *)
let round_seconds = 6.0

type mode_spec = Mem | Lat

let mode_name = function Mem -> "mem" | Lat -> "lat"

type case = {
  w : Zoo.workload;
  graph : Graph.t;
  spec : mode_spec;
  mutable times : float list;  (** search wall seconds, one per round *)
  mutable stats : Search.stats list;  (** one per round *)
  mutable first : (int * float) option;  (** best (peak, latency) *)
}

let config () =
  {
    Search.default_config with
    max_iterations = iterations;
    time_budget = 3600.0;
    jobs = 1;
    sim_cache = Some (Sim_cache.create ());
  }

let mode_of spec (base : Simulator.result) =
  match spec with
  | Mem -> Search.Min_memory { lat_limit = base.latency *. (1.0 +. overhead) }
  | Lat ->
      Search.Min_latency
        { mem_limit = int_of_float (float_of_int base.peak_mem *. mem_ratio) }

let span name f = Trace.with_span ~cat:"bench" name f

(* Build every graph and its unoptimized baseline: the set-up a user of
   the library pays before the first optimization. *)
let setup () =
  List.map
    (fun (w : Zoo.workload) ->
      let graph = span "Zoo.build" (fun () -> w.build Zoo.Quick) in
      let _ : Outcome.t =
        span "Naive.run" (fun () ->
            Naive.run (Op_cost.create Hardware.default) graph)
      in
      (w, graph))
    Zoo.all

(** Searches of one run, traced or not: wall seconds and allocation. *)
type phases = {
  mutable walls : float list;
  mutable minor_words : float;
  mutable major : int;
}

let phases () = { walls = []; minor_words = 0.0; major = 0 }

(* Re-simulate the best state from scratch and check it against what the
   search reported, against the schedule checker and against the mode's
   limit; then the fixed-work assertions, and that every round finds the
   same best state. *)
let check_result r (c : case) mode (res : Search.result) =
  let tag = Printf.sprintf "%s/%s" c.w.name (mode_name c.spec) in
  let best = res.best in
  let again =
    Mstate.evaluate (Op_cost.create Hardware.default) best.graph best.ftree
      best.schedule
  in
  let errors =
    List.filter
      (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error)
      (Sched_check.schedule best.graph best.schedule)
  in
  let within =
    match mode with
    | Search.Min_memory { lat_limit } -> best.latency <= lat_limit
    | Search.Min_latency { mem_limit } -> best.peak_mem <= mem_limit
  in
  let st = res.stats in
  let ok =
    again.peak_mem = best.peak_mem
    && M.same_bits again.latency best.latency
    && errors = [] && within && st.iterations = iterations
    && st.degrade_steps = [] && (not res.interrupted)
    && st.n_quarantined = 0
  in
  let stable =
    match c.first with
    | None ->
        c.first <- Some (best.peak_mem, best.latency);
        true
    | Some first -> first = (best.peak_mem, best.latency)
  in
  M.attempt r ~ok:(ok && stable)
    (lazy
      (Printf.sprintf
         "%s: resim peak %d/%d lat %h/%h, %d schedule errors, within=%b, \
          iterations %d/%d, degrade %d, interrupted %b, quarantined %d, \
          stable across rounds %b"
         tag again.peak_mem best.peak_mem again.latency best.latency
         (List.length errors) within st.iterations iterations
         (List.length st.degrade_steps) res.interrupted st.n_quarantined
         stable))

(* One search, timed, checked and accounted into [ph]; returns its wall
   seconds and result. *)
let search_case r ph (c : case) =
  let base =
    Simulator.run (Op_cost.create Hardware.default) c.graph
      (Graph.topo_order c.graph)
  in
  let mode = mode_of c.spec base in
  let config = config () in
  let gc0 = Gc.quick_stat () in
  let res, dt =
    M.time (fun () ->
        span "Search.run" (fun () ->
            match c.spec with
            | Mem ->
                Search.optimize_memory ~config
                  (Op_cost.create Hardware.default) ~overhead c.graph
            | Lat ->
                Search.optimize_latency ~config
                  (Op_cost.create Hardware.default) ~mem_ratio c.graph))
  in
  let gc1 = Gc.quick_stat () in
  ph.walls <- dt :: ph.walls;
  ph.minor_words <- ph.minor_words +. (gc1.minor_words -. gc0.minor_words);
  ph.major <- ph.major + (gc1.major_collections - gc0.major_collections);
  check_result r c mode res;
  Layers.check_accounting r ~what:c.w.name res.stats dt;
  (dt, res)

(* ------------------------------------------------------------------ *)
(* Frontier queries from the on-disk cache                             *)
(* ------------------------------------------------------------------ *)

let frontier_mode = Search.Min_memory { lat_limit = infinity }

let frontier_config =
  {
    Search.default_config with
    max_iterations = iterations;
    time_budget = 3600.0;
  }

(* The answer a budget query must give: the lowest-latency point that
   fits, found by scanning every point. *)
let scan_answer fr ~ratio =
  let budget = Frontier_build.budget_of_ratio fr ~ratio in
  List.fold_left
    (fun acc (p : Frontier.point) ->
      if p.peak > budget then acc
      else
        match acc with
        | Some (q : Frontier.point) when q.latency <= p.latency -> acc
        | _ -> Some p)
    None (Frontier.points fr)

let same_point a b =
  match (a, b) with
  | None, None -> true
  | Some (a : Frontier.point), Some (b : Frontier.point) ->
      a.peak = b.peak && M.same_bits a.latency b.latency
  | _ -> false

let frontier_query r ~dir graph ~ratio =
  let (fr, how), dt =
    M.time (fun () ->
        span "Frontier_build.cached_or_build" (fun () ->
            Frontier_build.cached_or_build ~config:frontier_config ~dir
              (Op_cost.create Hardware.default) frontier_mode graph))
  in
  let answer, dq = M.time (fun () -> Frontier_build.query_ratio fr ~ratio) in
  M.attempt r
    ~ok:
      ((match how with `Hit -> true | `Built _ -> false)
      && same_point answer (scan_answer fr ~ratio))
    (lazy
      (Printf.sprintf "frontier query at %.3f: miss or wrong answer" ratio));
  dt +. dq

(* ------------------------------------------------------------------ *)
(* Run                                                                 *)
(* ------------------------------------------------------------------ *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let shuffle_list rng l =
  let a = Array.of_list l in
  shuffle rng a;
  Array.to_list a

let run ~seed ~seconds ~trace ~tmp =
  let r = M.report () in
  let rng = Random.State.make [| seed |] in
  let selftimes = Layers.self_times () in
  if trace then Layers.start_trace ();
  let _, near = M.sample_host () in
  (* set-up, repeated; the last repetition's graphs are used *)
  let setups = List.init setup_repeats (fun _ -> M.time setup) in
  let graphs = fst (List.nth setups (setup_repeats - 1)) in
  M.e2e ~scaling:(Time_near near) r "setup_s" "s"
    (M.median (List.map snd setups));
  let cases =
    List.concat_map
      (fun (w, graph) ->
        List.map
          (fun spec -> { w; graph; spec; times = []; stats = []; first = None })
          [ Mem; Lat ])
      graphs
    |> Array.of_list
  in
  (* frontiers for the query stream, built once before the timed phase *)
  let fdir = Filename.concat tmp "frontiers" in
  let graph_of name =
    snd (List.find (fun ((w : Zoo.workload), _) -> w.name = name) graphs)
  in
  let fgraphs = List.map graph_of Zoo.smoke_pair in
  let save_ms = ref [] and load_ms = ref [] in
  let frontiers =
    List.map
      (fun graph ->
      let fr, how =
        Frontier_build.cached_or_build ~config:frontier_config ~dir:fdir
          (Op_cost.create Hardware.default) frontier_mode graph
      in
      M.attempt r
        ~ok:(match how with `Built _ -> Frontier.size fr > 0 | `Hit -> false)
        (lazy "frontier build: unexpected cache hit or empty frontier");
      let key =
        Frontier_build.key ~config:frontier_config frontier_mode
          ~hw:Hardware.default graph
      in
      let copy = Filename.concat tmp "frontier-copy" in
      let (), ds = M.time (fun () -> Frontier_cache.save ~dir:copy ~key fr) in
      let back, dl = M.time (fun () -> Frontier_cache.load ~dir:copy ~key) in
      M.check r
        ~ok:(Option.map Frontier.points back = Some (Frontier.points fr))
        (lazy "frontier cache round trip changed the points");
      save_ms := (ds *. 1e3) :: !save_ms;
      load_ms := (dl *. 1e3) :: !load_ms;
      fr)
    fgraphs
  in
  let fqueries =
    List.concat_map
      (fun name ->
        List.init queries_per_model (fun _ -> (name, graph_of name)))
      Zoo.smoke_pair
  in
  let rounds = max 1 (int_of_float (float_of_int seconds /. round_seconds)) in
  let ph = phases () and traced = phases () in
  let query_ms = ref [] in
  let results = Hashtbl.create 16 in
  let measured c =
    let dt, res = Layers.untraced selftimes (fun () -> search_case r ph c) in
    c.times <- dt :: c.times;
    c.stats <- res.stats :: c.stats;
    Hashtbl.replace results (c.w.name, c.spec) res
  in
  ignore (M.sample_host ());
  let t0 = M.now () in
  let paused = ref 0.0 in
  for _ = 1 to rounds do
    shuffle rng cases;
    Array.iteri
      (fun i c ->
        (* a traced run searches every case once more with tracing on,
           alternating which goes first, for the self-time table and the
           tracing-overhead ratio *)
        if trace && i mod 2 = 1 then ignore (search_case r traced c);
        measured c;
        if trace && i mod 2 = 0 then ignore (search_case r traced c);
        List.iter
          (fun (name, g) ->
            let ratio = 1.0 -. Random.State.float rng 0.7 in
            let ms = frontier_query r ~dir:fdir g ~ratio *. 1e3 in
            query_ms := (name, ms) :: !query_ms)
          (shuffle_list rng fqueries);
        paused := !paused +. fst (M.sample_host ~n:1 ()))
      cases
  done;
  let wall = M.now () -. t0 -. !paused in
  Layers.pp_accounting
    (Array.to_list cases
    |> List.map (fun c ->
           let name = Printf.sprintf "%s/%s" c.w.name (mode_name c.spec) in
           (name, c.times, c.stats))
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b));
  let all_times = Array.to_list cases |> List.concat_map (fun c -> c.times) in
  M.e2e r "opt_p50_ms" "ms"
    (1e3
    *. M.geomean (Array.to_list cases |> List.map (fun c -> M.median c.times)));
  let p, tail = M.tail all_times in
  Printf.printf "opt tail: p%g of %d searches\n" p (List.length all_times);
  M.e2e r "opt_tail_ms" "ms" (1e3 *. tail);
  M.e2e r "frontier_p50_ms" "ms" (M.group_p50 !query_ms);
  M.e2e ~scaling:Rate r "req_per_s" "1/s"
    (float_of_int (List.length all_times + List.length !query_ms) /. wall);
  let ratio_of spec f =
    M.geomean
      (Hashtbl.fold
         (fun (_, s) (res : Search.result) acc ->
           if s = spec then f res :: acc else acc)
         results [])
  in
  M.e2e ~scaling:Fixed r "peak_ratio" "ratio"
    (ratio_of Mem (fun res ->
         float_of_int res.best.peak_mem /. float_of_int res.initial.peak_mem));
  M.e2e ~scaling:Fixed r "latency_ratio" "ratio"
    (ratio_of Lat (fun res -> res.best.latency /. res.initial.latency));
  M.e2e ~scaling:Fixed r "peak_rss_mb" "MB"
    (Option.value ~default:0.0 (M.peak_rss_mb "self"));
  M.layer r "frontier.cache_save_ms" "ms" (M.median !save_ms);
  M.layer r "frontier.cache_load_ms" "ms" (M.median !load_ms);
  if trace then begin
    M.layer r "trace.overhead_ratio" "ratio"
      (M.geomean traced.walls /. M.geomean ph.walls);
    Layers.search_layers r
      (Array.to_list cases |> List.concat_map (fun c -> c.stats))
      ph.walls;
    let n = float_of_int (List.length ph.walls) in
    M.layer r "gc.minor_mb" "MB"
      (ph.minor_words *. float_of_int (Sys.word_size / 8) /. 1e6 /. n);
    M.layer r "gc.major_collections" "count" (float_of_int ph.major /. n);
    Probes.frontier_query r frontiers;
    Probes.run r
      (List.filter_map
         (fun (w, _) -> Hashtbl.find_opt results (w.Zoo.name, Mem))
         graphs);
    Layers.stop_trace selftimes
  end;
  (r, selftimes.chrome)
