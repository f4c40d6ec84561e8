(** Frontier service tests: dominance/query invariants (QCheck), the
    on-disk cache's round trip and its misses, what may be cached,
    harvest trajectory-invisibility (A/B-enforced), the
    one-search-many-budgets acceptance path, and the hardware-zoo
    registry with its all-field fingerprint. *)

open Magis

let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(** Random harvest streams: small (peak, latency, iteration, sched)
    tuples drawn from deliberately narrow ranges so ties, dominations
    and evictions all occur often. *)
let gen_point =
  QCheck2.Gen.(
    let* peak = int_range 1 40 in
    let* lat10 = int_range 1 40 in
    let* iteration = int_range 0 5 in
    let* sched = list_size (int_range 1 6) (int_range 0 9) in
    return
      {
        Frontier.peak;
        latency = float_of_int lat10 /. 10.;
        iteration;
        sched;
      })

let gen_points = QCheck2.Gen.(list_size (int_range 0 40) gen_point)

let frontier_of pts =
  let fr = Frontier.create ~baseline:(40, 4.0) in
  List.iter
    (fun (p : Frontier.point) ->
      ignore
        (Frontier.insert fr ~peak:p.peak ~latency:p.latency
           ~iteration:p.iteration p.sched))
    pts;
  fr

let count = 60

let prop name gen f = QCheck2.Test.make ~name ~count gen f

(* ------------------------------------------------------------------ *)
(* Frontier invariants                                                 *)
(* ------------------------------------------------------------------ *)

let dominates (a : Frontier.point) (b : Frontier.point) =
  a.peak <= b.peak && a.latency <= b.latency
  && (a.peak, a.latency) <> (b.peak, b.latency)

let no_resident_dominated =
  prop "no resident point dominates another" gen_points (fun pts ->
      let resident = Frontier.points (frontier_of pts) in
      List.for_all
        (fun a ->
          List.for_all (fun b -> not (dominates a b)) resident)
        resident)

let sorted_peak_up_latency_down =
  prop "residents sort peak ascending, latency strictly descending"
    gen_points (fun pts ->
      let rec ok = function
        | (a : Frontier.point) :: (b : Frontier.point) :: rest ->
            a.peak < b.peak && a.latency > b.latency && ok (b :: rest)
        | _ -> true
      in
      ok (Frontier.points (frontier_of pts)))

let insert_order_invisible =
  prop "resident set ignores insertion order" gen_points (fun pts ->
      Frontier.points (frontier_of pts)
      = Frontier.points (frontier_of (List.rev pts)))

let counters_account =
  prop "harvested = size + pruned + evicted" gen_points (fun pts ->
      let fr = frontier_of pts in
      let c = Frontier.counters fr in
      c.Frontier.harvested
      = Frontier.size fr + c.Frontier.pruned + c.Frontier.evicted)

let query_matches_linear_scan =
  prop "query agrees with a linear scan"
    QCheck2.Gen.(pair gen_points (int_range 0 45))
    (fun (pts, budget) ->
      let fr = frontier_of pts in
      let reference =
        List.fold_left
          (fun best (p : Frontier.point) ->
            if p.peak > budget then best
            else
              match best with
              | Some (b : Frontier.point) when b.latency <= p.latency ->
                  best
              | _ -> Some p)
          None (Frontier.points fr)
      in
      Frontier.query fr ~budget = reference)

let budget_monotone =
  prop "a larger budget never answers with worse latency"
    QCheck2.Gen.(triple gen_points (int_range 0 45) (int_range 0 45))
    (fun (pts, b1, b2) ->
      let lo = min b1 b2 and hi = max b1 b2 in
      let fr = frontier_of pts in
      match (Frontier.query fr ~budget:lo, Frontier.query fr ~budget:hi) with
      | None, _ -> true
      | Some _, None -> false (* feasibility must be monotone *)
      | Some a, Some b -> b.Frontier.latency <= a.Frontier.latency)

let fresh_dir name = Helpers.temp_path ("frontier-" ^ name)

let cache_roundtrip =
  let dir = fresh_dir "prop" in
  prop "cache save/load preserves points and counters" gen_points
    (fun pts ->
      let fr = frontier_of pts in
      (* exercise the query counters too *)
      ignore (Frontier.query fr ~budget:20);
      Frontier_cache.save ~dir ~key:1L fr;
      match Frontier_cache.load ~dir ~key:1L with
      | None -> false
      | Some back ->
          Frontier.points back = Frontier.points fr
          && Frontier.baseline back = Frontier.baseline fr
          && Frontier.counters back = Frontier.counters fr)

let props =
  [
    no_resident_dominated;
    sorted_peak_up_latency_down;
    insert_order_invisible;
    counters_account;
    query_matches_linear_scan;
    budget_monotone;
    cache_roundtrip;
  ]

(* ------------------------------------------------------------------ *)
(* Cache edge cases                                                    *)
(* ------------------------------------------------------------------ *)

let test_cache_miss_on_empty_dir () =
  match Frontier_cache.load ~dir:(fresh_dir "miss") ~key:42L with
  | None -> ()
  | Some _ -> Alcotest.fail "loaded a frontier from an empty cache dir"

let test_cache_roundtrip_and_key_isolation () =
  let dir = fresh_dir "rt" in
  let fr =
    frontier_of
      [
        { Frontier.peak = 10; latency = 3.0; iteration = 1; sched = [ 0; 1 ] };
        { Frontier.peak = 20; latency = 1.0; iteration = 2; sched = [ 1; 0 ] };
      ]
  in
  Frontier_cache.save ~dir ~key:7L fr;
  (match Frontier_cache.load ~dir ~key:7L with
  | Some back ->
      Alcotest.(check bool)
        "points survive the disk round-trip" true
        (Frontier.points back = Frontier.points fr)
  | None -> Alcotest.fail "cache miss right after save");
  match Frontier_cache.load ~dir ~key:8L with
  | None -> ()
  | Some _ -> Alcotest.fail "a different key hit the cached entry"

let small_frontier () =
  frontier_of
    [ { Frontier.peak = 10; latency = 3.0; iteration = 1; sched = [ 0; 1 ] } ]

let expect_miss what ~dir ~key =
  match Frontier_cache.load ~dir ~key with
  | None -> ()
  | Some _ -> Alcotest.failf "%s loaded as a frontier" what

(* Rewrite the saved file of [key] through [f] on its bytes. *)
let edit_file ~dir ~key f =
  let path = Frontier_cache.path ~dir ~key in
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (f bytes))

let test_cache_truncated_is_miss () =
  let dir = fresh_dir "truncated" in
  Frontier_cache.save ~dir ~key:3L (small_frontier ());
  edit_file ~dir ~key:3L (fun b -> String.sub b 0 (String.length b / 2));
  expect_miss "a truncated file" ~dir ~key:3L

let test_cache_flipped_byte_is_miss () =
  let dir = fresh_dir "flipped" in
  Frontier_cache.save ~dir ~key:4L (small_frontier ());
  (* the payload is the file's tail: its last byte is the frontier's *)
  edit_file ~dir ~key:4L (fun b ->
      let b = Bytes.of_string b in
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
      Bytes.to_string b);
  expect_miss "a file with a flipped payload byte" ~dir ~key:4L

let test_cache_version_1_is_miss () =
  let dir = fresh_dir "v1" in
  Checkpoint.mkdir_p dir;
  (* a version-1 file held the frontier's JSON document *)
  Checkpoint.save
    ~path:(Frontier_cache.path ~dir ~key:5L)
    ~version:1 ~fingerprint:5L
    (Json.Obj [ ("version", Json.Int 1); ("points", Json.List []) ]);
  expect_miss "a version-1 file" ~dir ~key:5L

(* A version-2 file held a frontier with no baseline. *)
type v2 = {
  pts : Frontier.point array;
  harvested : int;
  pruned : int;
  evicted : int;
  queries : int;
  hits : int;
}

let test_cache_version_2_is_miss () =
  let dir = fresh_dir "v2" in
  Checkpoint.mkdir_p dir;
  Checkpoint.save
    ~path:(Frontier_cache.path ~dir ~key:6L)
    ~version:2 ~fingerprint:6L
    { pts = [||]; harvested = 0; pruned = 0; evicted = 0; queries = 0;
      hits = 0 };
  expect_miss "a version-2 file" ~dir ~key:6L

(* ------------------------------------------------------------------ *)
(* Harvesting: trajectory-invisible, one search answers every budget   *)
(* ------------------------------------------------------------------ *)

let unet_quick () = (Zoo.find "unet").Zoo.build Zoo.Quick

let frontier_mode = Frontier_build.sweep_mode

let test_harvest_ab_bit_identical () =
  let g = unet_quick () in
  let config = { Search.default_config with max_iterations = 6 } in
  let hw = Hardware.default in
  let plain = Search.run ~config (Op_cost.create hw) frontier_mode g in
  let fr, harvested =
    Frontier_build.build ~config (Op_cost.create hw) frontier_mode g
  in
  Alcotest.(check int)
    "best peak identical with harvesting on"
    plain.Search.best.Mstate.peak_mem harvested.Search.best.Mstate.peak_mem;
  Alcotest.(check (float 0.0))
    "best latency identical with harvesting on"
    plain.Search.best.Mstate.latency harvested.Search.best.Mstate.latency;
  Alcotest.(check (list int))
    "best schedule identical with harvesting on"
    plain.Search.best.Mstate.schedule harvested.Search.best.Mstate.schedule;
  Alcotest.(check bool)
    "the sweep harvested more than the single best point" true
    ((Frontier.counters fr).Frontier.harvested > 1)

let test_one_search_many_budgets () =
  let dir = fresh_dir "acceptance" in
  let g = unet_quick () in
  let config = { Search.default_config with max_iterations = 12 } in
  let ladder = [ 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ] in
  (* first call searches once and persists the swept frontier *)
  let built, outcome1 =
    Frontier_build.cached_or_build ~config ~dir (Op_cost.create Hardware.default)
      frontier_mode g
  in
  (match outcome1 with
  | `Built _ -> ()
  | `Hit -> Alcotest.fail "first frontier call hit a cold cache");
  (* second call answers from the cache with zero additional searches *)
  let cached, outcome2 =
    Frontier_build.cached_or_build ~config ~dir (Op_cost.create Hardware.default)
      frontier_mode g
  in
  (match outcome2 with
  | `Hit -> ()
  | `Built _ -> Alcotest.fail "second frontier call searched again");
  Alcotest.(check bool)
    "cached frontier carries the built points" true
    (Frontier.points cached = Frontier.points built);
  let answers =
    List.map (fun ratio -> Frontier_build.query_ratio cached ~ratio) ladder
  in
  Alcotest.(check int)
    "all eight budget queries feasible from the cache"
    (List.length ladder)
    (List.length (List.filter Option.is_some answers));
  Alcotest.(check bool)
    "cached answers match the freshly built frontier's" true
    (answers
    = List.map (fun ratio -> Frontier_build.query_ratio built ~ratio) ladder);
  (* the ladder is answered by meaningfully distinct operating points *)
  let distinct =
    List.sort_uniq compare
      (List.filter_map
         (Option.map (fun (p : Frontier.point) -> (p.Frontier.peak, p.latency)))
         answers)
  in
  Alcotest.(check bool)
    "the ladder spans more than one operating point" true
    (List.length distinct > 1);
  (* ratio 1.0 is the unoptimized graph's peak, which every UNet point
     fits under *)
  match Frontier_build.query_ratio cached ~ratio:1.0 with
  | Some p ->
      Alcotest.(check int)
        "ratio 1.0 answers with the largest resident peak"
        (snd (Option.get (Frontier.peak_range cached)))
        p.Frontier.peak
  | None -> Alcotest.fail "ratio 1.0 must always be feasible"

(* Ratio 1.0 is the byte limit [optimize_latency ~mem_ratio:1.0] sets,
   the unoptimized graph's peak, on every Quick model, whether the
   frontier was just built or comes from the cache. *)
let test_ratio_one_is_baseline () =
  let dir = fresh_dir "baseline" in
  let config = { Search.default_config with max_iterations = 2 } in
  List.iter
    (fun (w : Zoo.workload) ->
      let g = w.build Zoo.Quick and cost = Op_cost.create Hardware.default in
      let peak, _ = Search.baseline cost g in
      List.iter
        (fun pass ->
          let fr, outcome =
            Frontier_build.cached_or_build ~config ~dir cost frontier_mode g
          in
          let what = Printf.sprintf "%s, %s" w.name pass in
          Alcotest.(check string) (what ^ ": outcome") pass
            (match outcome with `Built _ -> "built" | `Hit -> "cached");
          Alcotest.(check int) (what ^ ": ratio 1.0 is the baseline peak") peak
            (Frontier_build.budget_of_ratio fr ~ratio:1.0))
        [ "built"; "cached" ])
    Zoo.all

(* A sweep cut short is answered but leaves no file, so the next call
   builds again. *)
let check_not_cached what config =
  let dir = fresh_dir "cut" in
  let g = unet_quick () in
  let cost = Op_cost.create Hardware.default in
  let fr, outcome =
    Frontier_build.cached_or_build ~config ~dir cost frontier_mode g
  in
  (match outcome with
  | `Built r ->
      Alcotest.(check bool) (what ^ ": the sweep is not cacheable") false
        (Frontier_build.cacheable r)
  | `Hit -> Alcotest.failf "%s: hit a cold cache" what);
  Alcotest.(check bool) (what ^ ": answered with the baseline point") true
    (Frontier.size fr > 0);
  let key = Frontier_build.key ~config frontier_mode ~hw:Hardware.default g in
  Alcotest.(check bool) (what ^ ": no file saved") false
    (Sys.file_exists (Frontier_cache.path ~dir ~key));
  match Frontier_build.cached_or_build ~config ~dir cost frontier_mode g with
  | _, `Built _ -> ()
  | _, `Hit -> Alcotest.failf "%s: the cut sweep answered a later call" what

let test_budget_cut_not_cached () =
  check_not_cached "time budget"
    { Search.default_config with max_iterations = 12; time_budget = 1e-9 }

let test_poll_stop_not_cached () =
  check_not_cached "poll"
    {
      Search.default_config with
      max_iterations = 12;
      poll =
        (fun ~iteration ~best:_ -> if iteration >= 2 then `Stop else `Continue);
    }

(* A frontier built at one iteration cap never answers a request for
   another: the second request builds, and gets what a fresh build at
   its own cap sweeps. *)
let test_cap_in_key () =
  let dir = fresh_dir "cap" in
  let g = unet_quick () in
  let cost = Op_cost.create Hardware.default in
  let at iters = { Search.default_config with max_iterations = iters } in
  let short, _ =
    Frontier_build.cached_or_build ~config:(at 8) ~dir cost frontier_mode g
  in
  let long, outcome =
    Frontier_build.cached_or_build ~config:(at 40) ~dir cost frontier_mode g
  in
  (match outcome with
  | `Built _ -> ()
  | `Hit -> Alcotest.fail "the 40-iteration request hit the 8-iteration sweep");
  let fresh, _ = Frontier_build.build ~config:(at 40) cost frontier_mode g in
  Alcotest.(check bool) "the 40-iteration answer is a fresh 40-iteration build"
    true
    (Frontier.points long = Frontier.points fresh);
  Alcotest.(check bool) "and differs from the 8-iteration sweep" true
    (Frontier.points long <> Frontier.points short)

let test_key_sensitivity () =
  let g = unet_quick () in
  let base = Frontier_build.key frontier_mode ~hw:Hardware.default g in
  let other_hw = Frontier_build.key frontier_mode ~hw:Hardware.mobile g in
  let other_mode =
    Frontier_build.key (Search.Min_latency { mem_limit = max_int })
      ~hw:Hardware.default g
  in
  (* sched_states changes the path; max_iterations its length, and so
     the points a sweep harvests *)
  let other_cap =
    Frontier_build.key
      ~config:{ Search.default_config with max_iterations = 8 }
      frontier_mode ~hw:Hardware.default g
  in
  let other_config =
    Frontier_build.key
      ~config:
        {
          Search.default_config with
          sched_states = Search.default_config.Search.sched_states + 1;
        }
      frontier_mode ~hw:Hardware.default g
  in
  Alcotest.(check bool)
    "hardware, mode and config all perturb the cache key" true
    (List.length
       (List.sort_uniq Int64.compare
          [ base; other_hw; other_mode; other_cap; other_config ])
    = 5)

(* ------------------------------------------------------------------ *)
(* Hardware zoo                                                        *)
(* ------------------------------------------------------------------ *)

let test_zoo_registry () =
  Alcotest.(check int) "five registered profiles" 5
    (List.length Hardware.profiles);
  Alcotest.(check (list string))
    "names track the registry order" Hardware.names
    (List.map (fun (h : Hardware.t) -> h.Hardware.name) Hardware.profiles);
  let fps = List.map Hardware.fingerprint Hardware.profiles in
  Alcotest.(check int) "all profile fingerprints distinct"
    (List.length Hardware.profiles)
    (List.length (List.sort_uniq Int64.compare fps))

let test_fingerprint_covers_every_field () =
  let base = Hardware.rtx3090 in
  let mutants =
    [
      ("name", { base with Hardware.name = "rtx3090'" });
      ("peak_flops", { base with Hardware.peak_flops = base.peak_flops *. 2. });
      ( "mem_bandwidth",
        { base with Hardware.mem_bandwidth = base.mem_bandwidth +. 1.0 } );
      ( "swap_bandwidth",
        { base with Hardware.swap_bandwidth = base.swap_bandwidth +. 1.0 } );
      ( "launch_overhead",
        { base with Hardware.launch_overhead = base.launch_overhead *. 2. } );
      ( "device_memory",
        { base with Hardware.device_memory = base.device_memory + 1 } );
      ("fast_memory", { base with Hardware.fast_memory = base.fast_memory - 1 });
    ]
  in
  let fp = Hardware.fingerprint base in
  List.iter
    (fun (field, mutant) ->
      if Hardware.fingerprint mutant = fp then
        Alcotest.failf "mutating %s left the fingerprint unchanged" field)
    mutants

let test_find_and_fast_memory_knob () =
  Alcotest.(check string)
    "find is case-insensitive" Hardware.a100.Hardware.name
    (Hardware.find "A100").Hardware.name;
  (match Hardware.find "not-a-device" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "find accepted an unknown profile");
  let shrunk =
    Hardware.with_fast_memory Hardware.tiered ~bytes:(512 * 1024 * 1024)
  in
  Alcotest.(check int)
    "with_fast_memory sets the knob"
    (512 * 1024 * 1024)
    shrunk.Hardware.fast_memory;
  Alcotest.(check bool)
    "with_fast_memory renames the derived profile" true
    (shrunk.Hardware.name <> Hardware.tiered.Hardware.name);
  Alcotest.(check bool)
    "with_fast_memory changes the fingerprint" true
    (Hardware.fingerprint shrunk <> Hardware.fingerprint Hardware.tiered)

let test_batch_sweep () =
  let w = Zoo.find "UNet" in
  (match Zoo.with_batch w ~batch:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "with_batch accepted a non-positive batch");
  let sweep = Zoo.batch_sweep w ~batches:[ 1; 2; 4 ] in
  Alcotest.(check (list int))
    "batch_sweep carries the requested batches" [ 1; 2; 4 ]
    (List.map (fun (sw : Zoo.workload) -> sw.Zoo.batch) sweep);
  let same = Zoo.with_batch w ~batch:w.Zoo.batch in
  Alcotest.(check int)
    "with_batch at the native batch rebuilds the same graph"
    (Graph.n_nodes (w.Zoo.build Zoo.Quick))
    (Graph.n_nodes (same.Zoo.build Zoo.Quick))

(* ------------------------------------------------------------------ *)

let suite =
  [
    tc "cache load on an empty dir is a miss" test_cache_miss_on_empty_dir;
    tc "cache round-trips and isolates keys" test_cache_roundtrip_and_key_isolation;
    tc "cache: a truncated file is a miss" test_cache_truncated_is_miss;
    tc "cache: a flipped payload byte is a miss" test_cache_flipped_byte_is_miss;
    tc "cache: a version-1 file is a miss" test_cache_version_1_is_miss;
    tc "cache: a version-2 file is a miss" test_cache_version_2_is_miss;
    tc "harvesting is trajectory-invisible (A/B)" test_harvest_ab_bit_identical;
    tc "one UNet search answers the whole budget ladder from cache"
      test_one_search_many_budgets;
    tc "ratio 1.0 is the baseline peak on every Quick model"
      test_ratio_one_is_baseline;
    tc "a budget-cut sweep is answered, never cached" test_budget_cut_not_cached;
    tc "a poll-stopped sweep is answered, never cached" test_poll_stop_not_cached;
    tc "hardware, mode and config all perturb the cache key" test_key_sensitivity;
    tc "a cap-8 frontier never answers a cap-40 request" test_cap_in_key;
    tc "hardware zoo: five profiles, distinct fingerprints" test_zoo_registry;
    tc "fingerprint digests every profile field"
      test_fingerprint_covers_every_field;
    tc "find / with_fast_memory behave" test_find_and_fast_memory_knob;
    tc "batch sweep helpers" test_batch_sweep;
  ]
  @ List.map QCheck_alcotest.to_alcotest props
