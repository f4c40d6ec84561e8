(** Benchmark harness entry point: regenerates every table and figure of
    the paper's evaluation section (see DESIGN.md §3 for the index).

    Usage: [dune exec bench/main.exe -- [EXPERIMENTS] [--full] [--budget S]]

    By default runs every experiment at Quick scale (depth-reduced models,
    short search budgets) so the suite completes in minutes; [--full] uses
    the paper-scale model configurations. *)

let experiments : (string * (Common.env -> unit)) list =
  [
    ("table2", Table2.run);
    ("fig9", Fig9.run);
    ("fig10", Fig10.run);
    ("fig11", Fig11.run);
    ("fig12", Fig12.run);
    ("fig13", Fig13.run);
    ("fig14", Fig14.run);
    ("fig15", Fig15.run);
    ("fig16", Fig16.run);
    ("micro", Micro.run);
    ("design", Design.run);
    ("spatial", Spatial_bench.run);
    ("par", Par_bench.run);
    ("incr", Incr_bench.run);
    ("bounds", Bounds_bench.run);
    ("resilience", Resilience_bench.run);
    ("serve", Serve_bench.run);
    ("frontier", Frontier_bench.run);
  ]

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc contents)

let run_selected names full budget jobs iters stats_json trace metrics =
  if trace <> None then Magis.Trace.enable ();
  if metrics <> None then Magis.Metrics.set_enabled true;
  let env = Common.make_env ~jobs ~iters ?stats_json ~full ~budget () in
  let selected =
    match names with
    | [] | [ "all" ] -> experiments
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> (n, f)
            | None ->
                Fmt.failwith "unknown experiment %s (expected %s or all)" n
                  (String.concat ", " (List.map fst experiments)))
          names
  in
  List.iter
    (fun (name, f) ->
      let t0 = Unix.gettimeofday () in
      Magis.Trace.with_span ~cat:"bench" name (fun () -> f env);
      Printf.printf "[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. t0))
    selected;
  (match trace with
  | None -> ()
  | Some path ->
      Magis.Trace.disable ();
      write_file path (Magis.Trace.to_chrome ());
      Printf.printf "[trace written to %s]\n" path);
  match metrics with
  | None -> ()
  | Some path ->
      Magis.Metrics.set_enabled false;
      write_file path (Magis.Metrics.to_json ());
      Printf.printf "[metrics written to %s]\n" path

open Cmdliner

let names =
  let doc = "Experiments to run (table2, fig9..fig16, micro, all)." in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let full =
  let doc = "Use the paper-scale model configurations (slow)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let budget =
  let doc = "Search time budget per MAGIS optimization, in seconds." in
  Arg.(value & opt float 5.0 & info [ "budget" ] ~doc)

let jobs =
  let doc = "Worker domains per search (1 = serial legacy path)." in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~doc)

let iters =
  let doc =
    "Iteration cap per search (in addition to the time budget); the CI \
     bench-smoke job uses a tight cap."
  in
  Arg.(value & opt int max_int & info [ "iters" ] ~doc)

let stats_json =
  let doc =
    "Write each experiment's deterministic counters to this file as a flat \
     JSON object (the CI perf-smoke artifact; see scripts/compare_bench.sh)."
  in
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~doc)

let trace =
  let doc = "Enable tracing; write a Chrome trace-event file here at exit." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc)

let metrics =
  let doc = "Enable metrics; write the registry snapshot (JSON) here at exit." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~doc)

let cmd =
  let doc = "Regenerate the MAGIS paper's evaluation tables and figures" in
  Cmd.v
    (Cmd.info "magis-bench" ~doc)
    Term.(const run_selected $ names $ full $ budget $ jobs $ iters
          $ stats_json $ trace $ metrics)

let () = exit (Cmd.eval cmd)
