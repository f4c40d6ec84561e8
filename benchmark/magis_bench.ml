(* The repository benchmark.

     magis_bench.exe --workload W --seed N --seconds S --trace 0|1

   Runs one workload (search-zoo, serve-hot or serve-cold; see
   BENCHMARK.json for why each exists), checks every output, prints the
   end-to-end and per-layer tables and, as the last line of stdout, one
   JSON object with the end-to-end metrics (--trace 0) or the per-layer
   metrics (--trace 1).  Must be started from the repository root:
   scratch files go under .bench_tmp/ and are removed on exit, the
   traced run's artifacts go under .bench_out/. *)

let e2e_schema =
  [
    ("setup_s", "s");
    ("opt_p50_ms", "ms");
    ("opt_tail_ms", "ms");
    ("frontier_p50_ms", "ms");
    ("req_per_s", "1/s");
    ("peak_ratio", "ratio");
    ("latency_ratio", "ratio");
    ("peak_rss_mb", "MB");
  ]

let layer_schema =
  [
    ("rules.apply_s", "s");
    ("rules.rewrites", "count");
    ("ir.wl_hash_s", "s");
    ("ir.wl_hash_calls", "count");
    ("opt.dup_filtered", "count");
    ("analysis.bound_s", "s");
    ("analysis.bound_calls", "count");
    ("analysis.prune_ratio", "ratio");
    ("analysis.lv_delta_ratio", "ratio");
    ("analysis.cut_reuse_ratio", "ratio");
    ("sched.reschedule_s", "s");
    ("sched.reschedules", "count");
    ("sched.replaced_frac", "ratio");
    ("sched.fallbacks", "count");
    ("cost.simulate_s", "s");
    ("cost.simulations", "count");
    ("opt.iterations", "count");
    ("opt.other_s", "s");
    ("gc.minor_mb", "MB");
    ("gc.major_collections", "count");
    ("ir.wl_hash_us", "us");
    ("cost.simulate_us", "us");
    ("analysis.lower_bound_us", "us");
    ("analysis.liveness_us", "us");
    ("ftree.construct_us", "us");
    ("sched.greedy_us", "us");
    ("cost.codec_us", "us");
    ("cost.sim_cache_hit_ratio", "ratio");
    ("cost.sim_cache_delta_entries", "count");
    ("cost.simulator_runs_per_req", "count");
    ("cost.op_cost_hit_ratio", "ratio");
    ("opt.iterations_per_req", "count");
    ("resilience.checkpoint_saves_per_req", "count");
    ("serve.health_rtt_ms", "ms");
    ("serve.queue_depth_mean", "count");
    ("serve.shed_level_max", "count");
    ("serve.served", "count");
    ("serve.rejected", "count");
    ("serve.frontier_hits", "count");
    ("serve.frontier_built", "count");
    ("serve.frontier_tail_ms", "ms");
    ("protocol.encode_us", "us");
    ("protocol.decode_us", "us");
    ("frontier.query_us", "us");
    ("frontier.cache_save_ms", "ms");
    ("frontier.cache_load_ms", "ms");
    ("trace.overhead_ratio", "ratio");
    ("host.kernel_ms", "ms");
  ]

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 in
  let trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        " search-zoo | serve-hot | serve-cold" );
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " nominal measured seconds");
      ("--trace", Arg.Set_int trace, " 1 = traced run, per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "magis_bench.exe --workload W --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 in
  let run =
    match !workload with
    | "search-zoo" -> Zoo_search.run
    | "serve-hot" -> Serve_load.run ~hot:true
    | "serve-cold" -> Serve_load.run ~hot:false
    | w -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  let tmp = Printf.sprintf ".bench_tmp/%s-%d" !workload (Unix.getpid ()) in
  remove_tree tmp;
  mkdir_p tmp;
  let report, chrome =
    Fun.protect
      ~finally:(fun () ->
        remove_tree tmp;
        try Unix.rmdir ".bench_tmp" with Unix.Unix_error _ -> ())
      (fun () -> run ~seed:!seed ~seconds:!seconds ~trace ~tmp)
  in
  if trace then begin
    mkdir_p ".bench_out";
    let path = Printf.sprintf ".bench_out/%s.trace.json" !workload in
    Out_channel.with_open_text path (fun oc -> output_string oc chrome);
    Printf.printf "chrome trace: %s\n" path
  end;
  Measure.finish report ~trace
    ~schema:(if trace then layer_schema else e2e_schema)
