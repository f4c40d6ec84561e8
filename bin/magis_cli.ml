(** MAGIS command-line interface.

    - [magis_cli list] — available workloads (Table 2);
    - [magis_cli inspect WORKLOAD] — graph statistics, D-Graph dimensions
      and F-Tree candidates;
    - [magis_cli optimize WORKLOAD (--max-overhead P | --mem-ratio R)] —
      run the optimizer and print the resulting plan ([--stats-json FILE]
      writes its accounting table; [--profile DIR] traces the same run
      and writes stats.json, search.jsonl, trace.json, metrics.json and
      memtl.csv);
    - [magis_cli verify WORKLOAD] — run the IR verifier and schedule
      legality checker on a workload graph;
    - [magis_cli analyze [WORKLOAD]] — schedule-independent liveness and
      peak-memory bound analysis, with the bound-invariant check against
      two concrete schedules;
    - [magis_cli lint-rules] — differential lint of every rewrite rule
      over the model corpus ([dune build @lint]);
    - [magis_cli check-rules] — prove every rule's symbolic soundness
      obligations or validate its waiver's corpus coverage (exit 1 on a
      failed obligation, 2 on an unbacked waiver); [--interfere W] also
      replays W's memory plan through the allocator interference
      checker; [verify], [lint-rules] and [check-rules] accept [--json];
    - [magis_cli chaos --seed N] — fault-injection self test: a seeded
      search must survive every fault class (CI's chaos-smoke job).

    [optimize] exit codes: 1 = a [--profile] cross-check failed; 3 =
    interrupted by SIGINT/SIGTERM after writing its checkpoint (rerun
    with [--resume]); 4 = the checkpoint file is incompatible with the
    requested run; 5 = the best plan found misses the limit (printed as
    "limit not met"). *)

open Magis

let mb b = float_of_int b /. 1e6
let ms s = s *. 1e3

let load name full =
  let w = Zoo.find name in
  (w, w.build (if full then Zoo.Full else Zoo.Quick))

let cmd_list () =
  Printf.printf "%-12s %6s  %s\n" "Name" "Batch" "Configuration";
  List.iter
    (fun (w : Zoo.workload) ->
      Printf.printf "%-12s %6d  %s\n" w.name w.batch w.config)
    Zoo.all

let cmd_inspect name full =
  let w, g = load name full in
  let cost = Op_cost.create Hardware.default in
  let base = Simulator.baseline cost (Graph_index.of_graph g) in
  Printf.printf "%s (batch %d, %s)\n" w.name w.batch w.config;
  Printf.printf "  operators:   %d\n" (Graph.n_nodes g);
  Printf.printf "  weights:     %.1f MB\n" (mb (Graph.weight_bytes g));
  Printf.printf "  peak memory: %.1f MB (unoptimized)\n" (mb base.peak_mem);
  Printf.printf "  step time:   %.2f ms (unoptimized)\n" (ms base.latency);
  let dg = Dgraph.build g in
  let comps = Dgraph.components dg in
  Printf.printf "  graph-level dimensions: %d\n" (List.length comps);
  let hot = Lifetime.hotspots base.analysis in
  Printf.printf "  memory hot-spots: %d tensors, %.1f MB\n"
    (Util.Int_set.cardinal hot)
    (mb (Lifetime.hotspot_bytes base.analysis));
  let t = Ftree.construct g ~hotspots:hot in
  Printf.printf "  fission candidates (F-Tree): %d\n" (Ftree.n_entries t);
  for i = 0 to Ftree.n_entries t - 1 do
    let e = Ftree.entry t i in
    Printf.printf "    [%d] parent=%d |S|=%d\n" i e.parent
      (Util.Int_set.cardinal (Fission.members e.fission))
  done

(* exit codes of [optimize] (documented in the README): 3 = the search
   was interrupted by a signal after writing its checkpoint, 4 = the
   checkpoint on disk is incompatible with this run, 5 = the best plan
   misses its limit (as [frontier]'s 5 = a budget is infeasible) *)
let exit_interrupted = 3
let exit_incompatible = 4
let exit_limit_not_met = 5

(* [optimize]'s limit line: the limit, the best plan's value against
   it and whether it is met, with digits enough to show a near miss *)
let print_limit ~base_peak ~base_latency (r : Search.result) =
  let verdict = if Search.limit_met r then "limit met" else "limit not met" in
  match r.mode with
  | Search.Min_latency { mem_limit } ->
      let ratio b = float_of_int b /. float_of_int base_peak in
      Printf.printf
        "  %s: peak %.3f MB (ratio %.4f), limit %.3f MB (ratio %.4f)\n"
        verdict (mb r.best.peak_mem) (ratio r.best.peak_mem) (mb mem_limit)
        (ratio mem_limit)
  | Search.Min_memory { lat_limit } ->
      let over l = 100.0 *. (l -. base_latency) /. base_latency in
      Printf.printf
        "  %s: latency %.4f ms (%+.2f%%), limit %.4f ms (%+.2f%%)\n" verdict
        (ms r.best.latency) (over r.best.latency) (ms lat_limit)
        (over lat_limit)

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc contents)

(* [optimize --profile DIR]: replay the best schedule with event
   capture, under the same F-Tree accounting hooks the search evaluated
   it with, stop tracing and metrics, and write the run's artifacts
   beside the search.jsonl [sink] the search wrote: stats.json (the
   [--stats-json] table), trace.json (schedule lanes on the
   compute/copy streams plus the wall-clock spans), metrics.json and
   memtl.csv (memory over schedule steps with the Membound lower/upper
   bound columns).  False when the timeline's peak disagrees with the
   simulator's or the optimized memory plan fails the allocator
   interference check. *)
let write_profile cost (result : Search.result) sink =
  let best = result.best in
  let acc = Ftree.accounting cost (Graph_index.of_graph best.graph) best.ftree in
  let sim, events =
    Simulator.run_events ~size_of:acc.size_of ~cost_of:acc.cost_of cost
      best.graph best.schedule
  in
  Trace.disable ();
  Metrics.set_enabled false;
  let spans =
    List.map
      (fun (e : Simulator.event) ->
        let n = Graph.node best.graph e.ev_node in
        { Timeline.name = Printf.sprintf "%s#%d" (Op.name n.op) e.ev_node;
          lane = (if e.ev_copy then Timeline.Copy else Timeline.Compute);
          t_start = e.ev_start;
          t_dur = e.ev_finish -. e.ev_start;
          bytes = Shape.size_bytes n.shape })
      events
  in
  let dir = Filename.dirname (Profile.path sink) in
  let out file = Filename.concat dir file in
  write_file (out "stats.json") (Json.to_string (Search.stats_json result.stats));
  write_file (out "trace.json")
    (Timeline.chrome ~extra:(Trace.chrome_events ()) spans);
  let tl = Lifetime.timeline sim.analysis in
  let bound = Membound.compute ~size_of:acc.size_of best.graph in
  write_file (out "memtl.csv")
    (Timeline.memory_csv ~lower:bound.lower ~upper:bound.ub_total tl);
  write_file (out "metrics.json") (Metrics.to_json ());
  Printf.printf "  profile written to %s:\n" dir;
  Printf.printf "    trace.json: %d schedule event(s), %d trace event(s)%s\n"
    (List.length spans)
    (List.length (Trace.events ()))
    (let d = Trace.dropped () in
     if d > 0 then Printf.sprintf " (%d dropped)" d else "");
  Printf.printf "    memtl.csv: %d step(s), peak %.1f MB\n" (Array.length tl)
    (mb (Timeline.memory_max tl));
  Printf.printf "    search.jsonl: %d record(s); stats.json, metrics.json\n"
    (Profile.count sink);
  let peak_ok = Timeline.memory_max tl = sim.peak_mem in
  if not peak_ok then
    Printf.eprintf
      "magis: memory timeline peak %d disagrees with simulator peak %d\n"
      (Timeline.memory_max tl) sim.peak_mem;
  let itf = Interfere.check ~size_of:acc.size_of best.graph best.schedule in
  Fmt.pr "  interference: @[<v>%a@]@." Interfere.pp_report itf;
  peak_ok && Interfere.is_clean itf

(** Optimize a workload and print the plan and the Fig. 15 table.
    [--stats-json FILE] writes that table, untraced; [--checkpoint]
    makes SIGINT/SIGTERM stop the search at its next pop and saves the
    end state; [--profile DIR] also turns on tracing, metrics and the
    per-iteration telemetry sink for the same run and writes every
    artifact ({!write_profile}), exiting 1 when a cross-check fails. *)
let cmd_optimize name full overhead mem_ratio budget iters ckpt resume
    ckpt_every stats_json_path profile_dir =
  let w, g = load name full in
  let cost = Op_cost.create Hardware.default in
  let base = Simulator.baseline cost (Graph_index.of_graph g) in
  if resume && ckpt = None then begin
    prerr_endline "magis: --resume requires --checkpoint FILE";
    exit 2
  end;
  let checkpoint =
    Option.map
      (fun path ->
        { Search.ckpt_path = path; ckpt_every; ckpt_resume = resume })
      ckpt
  in
  (* with a checkpoint to save, SIGINT/SIGTERM stop the search at its
     next pop: the handler records the signal, the poll reads it *)
  let signal = Atomic.make 0 in
  let poll =
    match checkpoint with
    | None -> Search.default_config.poll
    | Some _ ->
        let (_unregister : unit -> unit) =
          Interrupt.on_signal (Atomic.set signal)
        in
        fun ~iteration:_ ~best:_ ->
          if Atomic.get signal = 0 then `Continue else `Stop
  in
  (* tracing and metrics start after the baseline simulation, so they
     hold the search and the replay of its best state only *)
  let sink =
    Option.map
      (fun dir ->
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        Trace.enable ();
        Metrics.set_enabled true;
        Profile.create (Filename.concat dir "search.jsonl"))
      profile_dir
  in
  let config =
    { Search.default_config with time_budget = budget;
      max_iterations = iters; checkpoint; poll; profile = sink }
  in
  let result =
    try
      Fun.protect ~finally:(fun () -> Option.iter Profile.close sink)
      @@ fun () ->
      let rel =
        match (overhead, mem_ratio) with
        | Some o, _ -> Search.Overhead o
        | None, Some r -> Search.Mem_ratio r
        | None, None -> Search.Overhead 0.10
      in
      (* the limit is set over the baseline printed below *)
      Search.run ~config cost
        (Search.mode_of rel ~peak:base.peak_mem ~latency:base.latency)
        g
    with Checkpoint.Incompatible reason ->
      Printf.eprintf "magis: incompatible checkpoint: %s\n" reason;
      exit exit_incompatible
  in
  (* the search writes only its periodic snapshots; the state it ended
     in is saved here, for [--resume] to a larger cap or after a
     signal, before the stats that count the save are printed *)
  let result = if ckpt = None then result else Search.save result in
  let best = result.best in
  Printf.printf "%s: %.1f MB / %.2f ms  ->  %.1f MB / %.2f ms\n" w.name
    (mb base.peak_mem) (ms base.latency) (mb best.peak_mem) (ms best.latency);
  Printf.printf "  memory ratio %.2f, latency %+.1f%%\n"
    (float_of_int best.peak_mem /. float_of_int base.peak_mem)
    (100.0 *. (best.latency -. base.latency) /. base.latency);
  print_limit ~base_peak:base.peak_mem ~base_latency:base.latency result;
  Printf.printf "  plan: %d fission region(s), %d swap(s); searched %d states\n"
    (List.length (Ftree.enabled_indices best.ftree))
    (Graph.fold (fun n a -> if n.op = Op.Store then a + 1 else a) best.graph 0)
    result.stats.iterations;
  List.iter
    (fun i ->
      let f = Ftree.fission_at best.ftree i in
      Printf.printf "    fission: %d ops into %d parts\n"
        (Util.Int_set.cardinal (Fission.members f))
        (Fission.fission_number f))
    (Ftree.enabled_indices best.ftree);
  (* the single stat renderer shared with the Fig. 15 bench replaces
     the ad-hoc expansion/resilience/degradation lines this command
     used to assemble itself *)
  Format.printf "%a%!" Search.pp_stats result.stats;
  List.iter
    (fun d -> Fmt.pr "%a@." Diagnostic.pp d)
    result.diagnostics;
  (match stats_json_path with
  | None -> ()
  | Some path ->
      write_file path (Json.to_string (Search.stats_json result.stats));
      Printf.printf "  stats written to %s\n" path);
  let profile_ok =
    match sink with None -> true | Some sink -> write_profile cost result sink
  in
  if result.stats.n_checkpoints > 0 then
    Printf.printf "  checkpoints: %d written to %s\n"
      result.stats.n_checkpoints
      (match ckpt with Some p -> p | None -> "?");
  if not profile_ok then exit 1;
  if result.interrupted then begin
    Printf.printf "  interrupted by %s; state saved, rerun with --resume\n"
      (if Atomic.get signal = Sys.sigint then "SIGINT" else "SIGTERM");
    exit exit_interrupted
  end;
  if not (Search.limit_met result) then exit exit_limit_not_met

(** Chaos harness: a seeded Randnet search is run fault-free, then once
    per (site, fault kind) with a transient fault planted at a
    pseudo-random visit inside the fault-free visit range (sites the
    fault-free run never visits are skipped).  Transient
    faults must leave the result bit-identical (the supervisor retries
    them); a persistent burst must quarantine — never crash — and a
    NaN burst must surface as a nonfinite-cost diagnostic.  Exits
    non-zero on the first violated expectation. *)
let cmd_chaos seed iters =
  let g =
    Randnet.build
      ~cfg:
        { Randnet.cells = 2; nodes_per_cell = 4; channels = 8; image = 8;
          batch = 2; seed }
      ()
  in
  let config =
    { Search.default_config with time_budget = 1e9; max_iterations = iters }
  in
  let cost = Op_cost.create Hardware.default in
  (* each run gets a cache of its own, which the search probes, so the
     [sim_cache] site is visited; a search given no cache never is *)
  let run_once () =
    let config = { config with sim_cache = Some (Sim_cache.create ()) } in
    Search.optimize_memory ~config cost ~overhead:0.10 g
  in
  Fault.observe ();
  let clean = run_once () in
  let visits = List.map (fun s -> (s, Fault.visits s)) Fault.sites in
  Fault.disarm ();
  Printf.printf "chaos: seed %d, %d iteration(s), clean best %.1f MB / %.2f ms\n"
    seed clean.stats.iterations
    (mb clean.best.peak_mem) (ms clean.best.latency);
  List.iter (fun (s, v) -> Printf.printf "  site %-12s %d visit(s)\n" s v)
    visits;
  let failures = ref 0 in
  let case label specs check =
    Fault.arm specs;
    let outcome = try Ok (run_once ()) with e -> Error e in
    let fired = List.length (Fault.fired ()) in
    Fault.disarm ();
    match outcome with
    | Error e ->
        incr failures;
        Printf.printf "FAIL %-28s crashed: %s\n" label (Printexc.to_string e)
    | Ok r when fired = 0 ->
        incr failures;
        Printf.printf "FAIL %-28s no fault fired (%d quarantined)\n" label
          r.stats.n_quarantined
    | Ok r -> (
        match check r with
        | None -> Printf.printf "ok   %-28s %d fired, %d retried, %d quarantined\n"
                    label fired r.stats.n_retried r.stats.n_quarantined
        | Some why ->
            incr failures;
            Printf.printf "FAIL %-28s %s (%d fired, %d retried, %d quarantined)\n"
              label why fired r.stats.n_retried r.stats.n_quarantined)
  in
  let identical (r : Search.result) =
    if
      r.best.peak_mem = clean.best.peak_mem
      && r.best.latency = clean.best.latency
      && r.stats.iterations = clean.stats.iterations
    then None
    else
      Some
        (Printf.sprintf "diverged: %.1f MB / %.2f ms (clean %.1f / %.2f)"
           (mb r.best.peak_mem) (ms r.best.latency)
           (mb clean.best.peak_mem) (ms clean.best.latency))
  in
  let window site =
    let v = List.assoc site visits in
    (* skip the early visits: the baseline simulation and the initial
       M-state are evaluated outside the supervised expansion loop *)
    (max 4 (v / 3), max 5 (2 * v / 3))
  in
  (* transient faults: one planted visit per site; the supervisor's
     retry must reproduce the fault-free result exactly.  A site the
     clean run never visits (the socket layer, which [magis_serve chaos]
     covers) cannot fire here and is skipped. *)
  List.iter
    (fun site ->
      if List.assoc site visits = 0 then
        Printf.printf "skip %-28s no visit in the clean run\n"
          ("transient @ " ^ site)
      else
        let lo, hi = window site in
        let kinds =
          [ ("exception", Fault.Exception); ("delay", Fault.Delay 0.002);
            ("stall", Fault.Stall 0.02) ]
          @ if site = "op_cost" then [ ("nan", Fault.Nan_cost) ] else []
        in
        List.iter
          (fun (kname, kind) ->
            case
              (Printf.sprintf "transient %s @ %s" kname site)
              (Fault.seeded ~seed ~lo ~hi [ (site, kind) ])
              identical)
          kinds)
    Fault.sites;
  (* Persistent faults: every visit of the site fails for a long
     stretch, so no bounded retry can outrun it — candidates must be
     quarantined with the right diagnostic, and the search must still
     return.  The burst must outlast the retry chain of at least one
     candidate (each failing execution consumes exactly one visit, and
     a candidate's retries run in place, before the next candidate). *)
  let persistent_len = 400 in
  (let site = "simulator" in
   let lo, _ = window site in
   case "persistent exception burst"
     (Fault.burst ~site ~at:lo ~len:persistent_len Fault.Exception)
     (fun r ->
       if r.stats.n_quarantined = 0 then Some "nothing was quarantined"
       else if
         not
           (List.exists
              (fun (d : Diagnostic.t) -> d.check = "injected-fault")
              r.diagnostics)
       then Some "no injected-fault diagnostic"
       else None));
  (let site = "op_cost" in
   let lo, _ = window site in
   case "persistent nan burst"
     (Fault.burst ~site ~at:lo ~len:persistent_len Fault.Nan_cost)
     (fun r ->
       if r.stats.n_quarantined = 0 then Some "nothing was quarantined"
       else if
         not
           (List.exists
              (fun (d : Diagnostic.t) -> d.check = "nonfinite-cost")
              r.diagnostics)
       then Some "no nonfinite-cost diagnostic"
       else None));
  if !failures > 0 then begin
    Printf.printf "chaos: %d failure(s)\n" !failures;
    exit 1
  end
  else print_endline "chaos: all fault classes survived"

let cmd_codegen name full budget output =
  let _, g = load name full in
  let cost = Op_cost.create Hardware.default in
  let config = { Search.default_config with time_budget = budget } in
  let result = Search.optimize_memory ~config cost ~overhead:0.10 g in
  let best = result.best in
  let base = (Simulator.baseline cost (Graph_index.of_graph g)).latency in
  let code, _ =
    Pytorch_codegen.emit_expanded cost
      ~title:
        (Printf.sprintf "MAGIS-optimized %s (%+.1f%% latency)" name
           (100.0 *. (best.latency -. base) /. base))
      ~accounted_peak:best.peak_mem best.graph best.ftree
      ~reschedule:(fun g' -> Reorder.schedule ~max_states:0 g')
  in
  match output with
  | None -> print_string code
  | Some path ->
      let oc = open_out path in
      output_string oc code;
      close_out oc;
      Printf.printf "wrote %s (%d lines)\n" path
        (List.length (String.split_on_char '\n' code))

(** Static bound analysis of one graph: liveness mobility histogram,
    the full {!Membound} record, and the gap between the bounds and two
    concrete schedules (program order and the memory-greedy reorder).
    Returns the bound-invariant diagnostics. *)
let analyze_one cost name g =
  let ix = Graph_index.of_graph g in
  let base = Simulator.baseline cost ix in
  let lv = Liveness.compute g in
  let b = Membound.of_liveness lv in
  let greedy_order = Reorder.schedule ~max_states:0 g in
  let greedy = Simulator.run cost g greedy_order in
  Printf.printf "%s: %d operator(s)\n" name (Graph.n_nodes g);
  Printf.printf "  weights: %.1f MB pinned; outputs: %.1f MB pinned\n"
    (mb (Liveness.weight_bytes lv))
    (mb (Liveness.pinned_bytes lv - Liveness.weight_bytes lv));
  Fmt.pr "  %a@." Membound.pp b;
  let acc = Ftree.accounting cost ix Ftree.empty in
  let lat_lb = Membound.latency_lower_bound ~cost_of:acc.cost_of g in
  Printf.printf "  latency: %.2f ms simulated, %.2f ms lower bound\n"
    (ms base.latency) (ms lat_lb);
  Printf.printf
    "  peak: %.1f MB program order, %.1f MB greedy; lower-bound gap %.2fx / \
     %.2fx\n"
    (mb base.peak_mem) (mb greedy.peak_mem)
    (float_of_int base.peak_mem /. float_of_int (max 1 b.lower))
    (float_of_int greedy.peak_mem /. float_of_int (max 1 b.lower));
  (* mobility histogram: how much schedule freedom the tensors have *)
  let buckets = [| 0; 0; 0; 0; 0 |] in
  let bucket_of m =
    if m = 0 then 0 else if m <= 2 then 1 else if m <= 7 then 2
    else if m <= 15 then 3 else 4
  in
  Liveness.fold
    (fun v () ->
      let i = bucket_of (Liveness.mobility lv v) in
      buckets.(i) <- buckets.(i) + 1)
    lv ();
  Printf.printf
    "  mobility: %d fixed, %d of 1-2 steps, %d of 3-7, %d of 8-15, %d of 16+\n"
    buckets.(0) buckets.(1) buckets.(2) buckets.(3) buckets.(4);
  let diags =
    Membound.check b ~peak:base.peak_mem
    @ Membound.check b ~peak:greedy.peak_mem
  in
  if not (Diagnostic.is_clean diags) then
    Fmt.pr "%a@." Diagnostic.pp_report diags;
  diags

let cmd_analyze name full =
  let cost = Op_cost.create Hardware.default in
  let targets =
    match name with Some n -> [ Zoo.find n ] | None -> Zoo.all
  in
  let diags =
    List.concat_map
      (fun (w : Zoo.workload) ->
        analyze_one cost w.name
          (w.build (if full then Zoo.Full else Zoo.Quick)))
      targets
  in
  if Diagnostic.is_clean diags then print_endline "bound invariants clean"
  else exit 1

let diags_json diags =
  Json.List (List.map Diagnostic.to_json diags)

let cmd_verify name full json =
  let w, g = load name full in
  let order = Graph.topo_order g in
  let diags = Verify.graph g @ Sched_check.schedule g order in
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("workload", Json.String w.name);
              ("operators", Json.Int (Graph.n_nodes g));
              ("steps", Json.Int (List.length order));
              ("clean", Json.Bool (Diagnostic.is_clean diags));
              ("diagnostics", diags_json diags) ]))
  else begin
    Printf.printf "%s: %d operator(s), %d scheduled step(s)\n" w.name
      (Graph.n_nodes g) (List.length order);
    if diags = [] then print_endline "verification clean"
    else Fmt.pr "%a@." Diagnostic.pp_report diags
  end;
  if not (Diagnostic.is_clean diags) then exit 1

(** Hand-built graph exercising the rewrite patterns the model zoo never
    produces: a transpose∘transpose pair, a concat of contiguous slices
    of one tensor, and a Store/Load swap pair (the de-swap rule). *)
let patterns_graph () =
  let g = Graph.empty in
  let sh = Shape.create [ 2; 4; 8 ] in
  let g, x = Graph.add_input ~label:"x" g Op.Placeholder sh in
  let g, t1 = Graph.add g (Op.Transpose [| 0; 2; 1 |]) [ x ] in
  let g, t2 = Graph.add g (Op.Transpose [| 0; 2; 1 |]) [ t1 ] in
  let g, s1 = Graph.add g (Op.Slice { axis = 1; lo = 0; hi = 2 }) [ t2 ] in
  let g, s2 = Graph.add g (Op.Slice { axis = 1; lo = 2; hi = 4 }) [ t2 ] in
  let g, cat = Graph.add g (Op.Concat 1) [ s1; s2 ] in
  let g, relu = Graph.add g (Op.Unary Op.Relu) [ cat ] in
  let g, store = Graph.add g Op.Store [ relu ] in
  let g, load = Graph.add g Op.Load [ store ] in
  let g, _ = Graph.add g (Op.Binary Op.Add) [ load; x ] in
  g

(** Lint corpus: every Table 2 workload at [Quick] scale, a few seeded
    random NASNet-like graphs (small enough for the numeric equivalence
    check to run on them), and materialized fission variants of the
    smallest subjects (the slice/part/merge seams F-Trans produces). *)
let lint_corpus seeds =
  let base =
    [ ("patterns", patterns_graph ()) ]
    @ List.map
        (fun (w : Zoo.workload) -> (w.name, w.build Zoo.Quick))
        Zoo.all
    @ List.map
        (fun seed ->
          ( Printf.sprintf "randnet-%d" seed,
            Randnet.build
              ~cfg:
                { Randnet.cells = 1; nodes_per_cell = 3; channels = 8;
                  image = 8; batch = 2; seed }
              () ))
        seeds
  in
  let small =
    List.filter (fun (_, g) -> Graph.n_nodes g <= 80) base
  in
  base @ Rule_lint.builtin_corpus () @ Rule_lint.fission_corpus ~max_graphs:6 small

let cmd_lint_rules seeds max_per_rule interp_limit json =
  let corpus = lint_corpus (List.init seeds (fun i -> i + 1)) in
  if not json then
    Printf.printf "corpus: %s\n%!"
      (String.concat ", "
         (List.map
            (fun (name, g) -> Printf.sprintf "%s(%d)" name (Graph.n_nodes g))
            corpus));
  let rules = Taso_rules.all @ Sched_rules.all in
  let report = Rule_lint.lint ~max_per_rule ~interp_limit ~rules corpus in
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("corpus",
               Json.List (List.map (fun (n, _) -> Json.String n) corpus));
              ("rules", Json.Int report.Rule_lint.n_rules);
              ("rewrites", Json.Int report.Rule_lint.n_rewrites);
              ("errors", Json.Int report.Rule_lint.n_errors);
              ("warnings", Json.Int report.Rule_lint.n_warnings);
              ("diagnostics",
               diags_json
                 (List.concat_map
                    (fun (e : Rule_lint.entry) -> e.diags)
                    report.Rule_lint.entries)) ]))
  else Fmt.pr "%a@." Rule_lint.pp_report report;
  if not (Rule_lint.is_clean report) then exit 1

(* exit codes of [check-rules] (documented in the README): 1 = a
   soundness obligation or the interference check failed, 2 = every
   obligation holds but some waiver lacks corpus coverage *)
let exit_unsound = 1
let exit_unbacked_waiver = 2

(** Interference probe for [check-rules --interfere]: the workload's
    program-order baseline, plus the schedule an actual (short) memory
    optimization produced — swap/remat output is where allocator bugs
    would surface. *)
let interfere_probe name budget =
  let w = Zoo.find name in
  let g = w.build Zoo.Quick in
  let base = Interfere.check g (Graph.topo_order g) in
  let cost = Op_cost.create Hardware.default in
  let config = { Search.default_config with time_budget = budget } in
  let result = Search.optimize_memory ~config cost ~overhead:0.10 g in
  let best = result.Search.best in
  let acc = Ftree.accounting cost (Graph_index.of_graph best.Mstate.graph) best.Mstate.ftree in
  let opt =
    Interfere.check ~size_of:acc.Ftree.size_of best.Mstate.graph
      best.Mstate.schedule
  in
  [ (Printf.sprintf "%s (program order)" w.name, base);
    (Printf.sprintf "%s (optimized)" w.name, opt) ]

let cmd_check_rules json interfere_wl budget =
  let corpus = Rule_lint.builtin_corpus () in
  let rules = Taso_rules.all @ Sched_rules.all in
  let report = Rule_sound.check_rules ~corpus rules in
  let probes =
    match interfere_wl with
    | None -> []
    | Some name -> interfere_probe name budget
  in
  if json then begin
    let entry (e : Rule_sound.entry) =
      Json.Obj
        (( "rule", Json.String e.rule )
         :: (match e.status with
            | Rule_sound.Proven n ->
                [ ("status", Json.String "proven"); ("templates", Json.Int n) ]
            | Rule_sound.Waived reason ->
                [ ("status", Json.String "waived");
                  ("reason", Json.String reason) ])
        @ [ ("diagnostics", diags_json e.diags) ])
    in
    let probe (name, (r : Interfere.report)) =
      Json.Obj
        [ ("subject", Json.String name);
          ("buffers", Json.Int r.Interfere.n_buffers);
          ("arena_bytes", Json.Int r.Interfere.arena.Allocator.arena_size);
          ("peak_live", Json.Int r.Interfere.arena.Allocator.peak_live);
          ("clean", Json.Bool (Interfere.is_clean r));
          ("diagnostics", diags_json r.Interfere.diags) ]
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("proven", Json.Int report.Rule_sound.n_proven);
              ("waived", Json.Int report.Rule_sound.n_waived);
              ("errors", Json.Int report.Rule_sound.n_errors);
              ("warnings", Json.Int report.Rule_sound.n_warnings);
              ("unbacked_waivers",
               Json.List
                 (List.map
                    (fun r -> Json.String r)
                    (Rule_sound.unbacked_waivers report)));
              ("rules", Json.List (List.map entry report.Rule_sound.entries));
              ("interference", Json.List (List.map probe probes)) ]))
  end
  else begin
    Fmt.pr "%a@." Rule_sound.pp_report report;
    List.iter
      (fun (name, r) -> Fmt.pr "interference %s:@.  @[<v>%a@]@." name
          Interfere.pp_report r)
      probes
  end;
  let unbacked = Rule_sound.unbacked_waivers report in
  let interfere_bad =
    List.exists (fun (_, r) -> not (Interfere.is_clean r)) probes
  in
  (* unbacked waivers account for all their errors; anything beyond that
     is a real soundness failure *)
  let n_unbacked_errors =
    List.length
      (List.filter
         (fun (d : Diagnostic.t) -> d.check = "waiver-no-coverage")
         (Diagnostic.errors
            (List.concat_map
               (fun (e : Rule_sound.entry) -> e.diags)
               report.Rule_sound.entries)))
  in
  if report.Rule_sound.n_errors > n_unbacked_errors || interfere_bad then
    exit exit_unsound
  else if unbacked <> [] then exit exit_unbacked_waiver

let cmd_export name full fmt_ =
  let _, g = load name full in
  match fmt_ with
  | "dot" -> print_string (Export.to_dot g)
  | "text" -> print_string (Export.to_text g)
  | "summary" -> print_endline (Export.summary g)
  | other -> Printf.eprintf "unknown format %s (dot|text|summary)\n" other

(* exit code of [frontier] (documented in the README): 5 = some
   requested budget has no feasible point on the frontier *)
let exit_infeasible = 5

let cmd_frontier name full hw_name batch budgets cache_dir iters sched_states
    json =
  let w = Zoo.find name in
  let w = match batch with None -> w | Some b -> Zoo.with_batch w ~batch:b in
  let hw = Hardware.find hw_name in
  let scale = if full then Zoo.Full else Zoo.Quick in
  let graph = w.build scale in
  let cost = Op_cost.create hw in
  let config =
    { Search.default_config with max_iterations = iters; sched_states }
  in
  let fr, status =
    Frontier_build.cached_or_build ~config ~dir:cache_dir cost
      Frontier_build.sweep_mode graph
  in
  let budgets =
    if budgets <> [] then budgets
    else [ 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]
  in
  let answers =
    List.map
      (fun ratio -> (ratio, Frontier_build.query_ratio fr ~ratio))
      budgets
  in
  let searches = match status with `Hit -> 0 | `Built _ -> 1 in
  if json then begin
    let c = Frontier.counters fr in
    let answer (ratio, ans) =
      Json.Obj
        (( "budget_ratio", Json.Float ratio )
         :: ("budget_bytes",
             Json.Int (Frontier_build.budget_of_ratio fr ~ratio))
         ::
         (match ans with
         | Some (p : Frontier.point) ->
             [ ("feasible", Json.Bool true);
               ("peak_mem", Json.Int p.peak);
               ("latency", Json.Float p.latency) ]
         | None -> [ ("feasible", Json.Bool false) ]))
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("workload", Json.String w.name);
              ("hw", Json.String hw.Hardware.name);
              ("cache_hit", Json.Bool (searches = 0));
              ("searches", Json.Int searches);
              ("points", Json.Int (Frontier.size fr));
              ("harvested", Json.Int c.Frontier.harvested);
              ("answers", Json.List (List.map answer answers)) ]))
  end
  else begin
    Printf.printf "%s on %s: %s, %d frontier points (%d searches)\n" w.name
      hw.Hardware.name
      (match status with `Hit -> "cache hit" | `Built _ -> "built")
      (Frontier.size fr) searches;
    (match Frontier.peak_range fr with
    | Some (lo, hi) ->
        Printf.printf "  peak range %.1f-%.1f MB\n" (mb lo) (mb hi)
    | None -> ());
    List.iter
      (fun (ratio, ans) ->
        match ans with
        | Some (p : Frontier.point) ->
            Printf.printf "  budget %.2f (%.1f MB): %.1f MB / %.2f ms\n" ratio
              (mb (Frontier_build.budget_of_ratio fr ~ratio))
              (mb p.peak) (ms p.latency)
        | None ->
            Printf.printf "  budget %.2f (%.1f MB): infeasible\n" ratio
              (mb (Frontier_build.budget_of_ratio fr ~ratio)))
      answers
  end;
  if List.exists (fun (_, ans) -> ans = None) answers then exit exit_infeasible

open Cmdliner

let workload = Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
let full = Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale model configuration.")

let list_cmd = Cmd.v (Cmd.info "list" ~doc:"List workloads") Term.(const cmd_list $ const ())

let inspect_cmd =
  Cmd.v (Cmd.info "inspect" ~doc:"Analyze a workload")
    Term.(const cmd_inspect $ workload $ full)

let optimize_cmd =
  let overhead =
    Arg.(value & opt (some float) None
         & info [ "max-overhead" ] ~doc:"Minimize memory; allow this latency overhead (e.g. 0.10).")
  in
  let mem_ratio =
    Arg.(value & opt (some float) None
         & info [ "mem-ratio" ] ~doc:"Minimize latency; cap memory at this ratio of the unoptimized peak.")
  in
  let budget =
    Arg.(value & opt float 10.0 & info [ "budget" ] ~doc:"Search seconds.")
  in
  let iters =
    Arg.(value & opt int max_int
         & info [ "iters" ] ~doc:"Maximum search iterations.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ]
             ~doc:"Write crash-safe search snapshots to this file.")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Resume from the checkpoint file when one exists \
                   (requires --checkpoint; exit code 4 when the file is \
                   incompatible with this run).")
  in
  let ckpt_every =
    Arg.(value & opt float 30.0
         & info [ "ckpt-every" ] ~doc:"Seconds between periodic snapshots.")
  in
  let stats_json =
    Arg.(value & opt (some string) None
         & info [ "stats-json" ]
             ~doc:"Write the search's accounting table (per-stage seconds, \
                   counters, wall time and the unaccounted remainder) as \
                   JSON to this file.")
  in
  let profile =
    Arg.(value & opt (some string) None
         & info [ "profile" ] ~docv:"DIR"
             ~doc:"Also trace the run, record its metrics and one telemetry \
                   record per iteration, and write stats.json, \
                   search.jsonl, trace.json (schedule lanes and wall-clock \
                   spans), metrics.json and memtl.csv into this directory \
                   (created when missing); exit 1 when the timeline's peak \
                   disagrees with the simulator's or the allocator \
                   interference check fails.")
  in
  Cmd.v (Cmd.info "optimize" ~doc:"Optimize a workload")
    Term.(const cmd_optimize $ workload $ full $ overhead $ mem_ratio $ budget
          $ iters $ checkpoint $ resume $ ckpt_every $ stats_json $ profile)

let chaos_cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Randnet and fault-plan seed.")
  in
  let iters =
    Arg.(value & opt int 8 & info [ "iters" ] ~doc:"Search iterations per run.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Fault-injection self test: a seeded search must survive every \
          fault class, reproducing the fault-free result exactly under \
          transient faults and quarantining persistent ones")
    Term.(const cmd_chaos $ seed $ iters)

let codegen_cmd =
  let budget =
    Arg.(value & opt float 10.0 & info [ "budget" ] ~doc:"Search seconds.")
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~doc:"Write the Python module here.")
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:"Optimize a workload and emit PyTorch code for the result")
    Term.(const cmd_codegen $ workload $ full $ budget $ output)

let export_cmd =
  let fmt_ =
    Arg.(value & opt string "summary"
         & info [ "format" ] ~doc:"dot, text or summary.")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a workload graph")
    Term.(const cmd_export $ workload $ full $ fmt_)

let json_flag =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Emit the report as a single JSON object on stdout.")

let frontier_cmd =
  let hw =
    Arg.(value & opt string "rtx3090"
         & info [ "hw" ]
             ~doc:"Hardware profile (see [magis list] docs: rtx3090, a100, \
                   mobile, edge-lb, tiered).")
  in
  let batch =
    Arg.(value & opt (some int) None
         & info [ "batch" ] ~doc:"Rebuild the workload at this batch size.")
  in
  let budgets =
    Arg.(value & opt_all float []
         & info [ "budget" ]
             ~doc:"Memory budget as a ratio of the baseline peak, in (0, 1]; \
                   repeatable.  Default: an 8-step ladder from 0.30 to 1.00.")
  in
  let cache_dir =
    Arg.(value & opt string "_frontier_cache"
         & info [ "cache-dir" ]
             ~doc:"Frontier cache directory: a repeated invocation answers \
                   every budget from the cached frontier with zero searches.")
  in
  let iters =
    Arg.(value & opt int 32
         & info [ "iters" ]
             ~doc:"Maximum search iterations for a cache-miss build (part \
                   of the cache key).")
  in
  let sched_states =
    Arg.(value & opt int 0
         & info [ "sched-states" ]
             ~doc:"DP budget per scheduling call (part of the cache key).")
  in
  Cmd.v
    (Cmd.info "frontier"
       ~doc:
         "Sweep (or reload) the memory-latency Pareto frontier of a \
          workload and answer one or more memory-budget queries from it; \
          one search populates a cache that answers every later budget \
          with zero searches (exit 5 when a budget is infeasible)")
    Term.(const cmd_frontier $ workload $ full $ hw $ batch $ budgets
          $ cache_dir $ iters $ sched_states $ json_flag)

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Run the IR verifier and schedule legality checker on a workload")
    Term.(const cmd_verify $ workload $ full $ json_flag)

let analyze_cmd =
  let workload_opt =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Schedule-independent liveness and peak-memory bound analysis of a \
          workload (all workloads when omitted); exits non-zero on any \
          bound-invariant violation")
    Term.(const cmd_analyze $ workload_opt $ full)

let lint_rules_cmd =
  let seeds =
    Arg.(value & opt int 3
         & info [ "seeds" ] ~doc:"Number of seeded random graphs in the corpus.")
  in
  let max_per_rule =
    Arg.(value & opt int 4
         & info [ "max-per-rule" ] ~doc:"Rewrites checked per rule and corpus graph.")
  in
  let interp_limit =
    Arg.(value & opt int 80
         & info [ "interp-limit" ]
             ~doc:"Largest node count checked numerically on the interpreter.")
  in
  Cmd.v
    (Cmd.info "lint-rules"
       ~doc:"Differential lint of every rewrite rule over the model corpus")
    Term.(const cmd_lint_rules $ seeds $ max_per_rule $ interp_limit $ json_flag)

let check_rules_cmd =
  let interfere =
    Arg.(value & opt (some string) None
         & info [ "interfere" ] ~docv:"WORKLOAD"
             ~doc:"Also replay the memory plan for this workload (program \
                   order and a short optimization) through the allocator \
                   interference checker.")
  in
  let budget =
    Arg.(value & opt float 2.0
         & info [ "budget" ]
             ~doc:"Search seconds for the --interfere optimization probe.")
  in
  Cmd.v
    (Cmd.info "check-rules"
       ~doc:
         "Prove every rewrite rule's symbolic soundness obligations \
          (output shapes, dtypes, memory delta, dependency refinement, \
          grounding conformance) or validate its waiver's differential \
          coverage; exit 1 on a failed obligation, 2 on an unbacked waiver")
    Term.(const cmd_check_rules $ json_flag $ interfere $ budget)

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "magis" ~doc:"MAGIS memory optimizer for DNN graphs")
          [ list_cmd; inspect_cmd; optimize_cmd; codegen_cmd;
            export_cmd; verify_cmd; analyze_cmd; lint_rules_cmd;
            check_rules_cmd; frontier_cmd; chaos_cmd ]))
