(** Entry point of the optimization service.

    - [magis_serve daemon] — run the daemon until SIGTERM/SIGINT or a
      [shutdown] command drains it (DESIGN.md §13);
    - [magis_serve request MODEL] — submit one optimization request and
      stream its progress/result (exit 2 on an error reply);
    - [magis_serve health] / [magis_serve metrics] — one-shot probes of
      a running daemon (Prometheus text on stdout for [metrics]);
    - [magis_serve load] — the load generator: N concurrent clients,
      mixed zoo workloads, p50/p99 latency, rejection and cache-hit
      rates;
    - [magis_serve chaos] — the seeded client-side chaos harness (exit
      1 when any scenario fails to get a structured answer);
    - [magis_serve shutdown] — ask a running daemon to drain and exit. *)

module P = Magis_serve.Protocol
module Server = Magis_serve.Server
module Client = Magis_serve.Client
module Loadgen = Magis_serve.Loadgen
open Cmdliner

let addr_term =
  let socket =
    Arg.(value & opt string "magis.sock"
         & info [ "socket" ] ~docv:"PATH" ~doc:"Unix domain socket path.")
  in
  let tcp =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT"
             ~doc:"Listen/connect on 127.0.0.1:$(docv) instead of the Unix \
                   socket.")
  in
  let make socket tcp =
    match tcp with Some port -> P.Tcp port | None -> P.Unix_sock socket
  in
  Term.(const make $ socket $ tcp)

let cmd_daemon addr workers queue_cap per_client ckpt_dir ckpt_every
    write_timeout verbose =
  let cfg =
    {
      Server.addr;
      workers;
      queue_cap;
      per_client_limit = per_client;
      ckpt_dir;
      ckpt_every;
      write_timeout;
      verbose;
    }
  in
  let t = Server.create cfg in
  (match addr with
  | P.Unix_sock path -> Fmt.pr "magis-serve: listening on %s@." path
  | P.Tcp port -> Fmt.pr "magis-serve: listening on 127.0.0.1:%d@." port);
  Server.run t;
  0

let daemon_cmd =
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~doc:"Request-executor domains.")
  in
  let queue_cap =
    Arg.(value & opt int 16
         & info [ "queue-cap" ] ~doc:"Bounded admission queue capacity.")
  in
  let per_client =
    Arg.(value & opt int 4
         & info [ "per-client" ] ~doc:"Max in-flight requests per connection.")
  in
  let ckpt_dir =
    Arg.(value & opt string "_serve_ckpt"
         & info [ "ckpt-dir" ] ~docv:"DIR"
             ~doc:"Checkpoint directory (one file per in-flight request id; \
                   restart against the same directory to resume).")
  in
  let ckpt_every =
    Arg.(value & opt float 0.25
         & info [ "ckpt-every" ] ~doc:"Seconds between periodic snapshots.")
  in
  let write_timeout =
    Arg.(value & opt float 5.0
         & info [ "write-timeout" ]
             ~doc:"Seconds before a blocked reply write declares the client \
                   dead (slow-loris guard).")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Log lifecycle events.")
  in
  Cmd.v
    (Cmd.info "daemon"
       ~doc:"Run the optimization daemon until drained by SIGTERM/shutdown")
    Term.(const cmd_daemon $ addr_term $ workers $ queue_cap $ per_client
          $ ckpt_dir $ ckpt_every $ write_timeout $ verbose)

let pp_reply reply =
  match reply with
  | P.Progress p ->
      Fmt.pr "progress %s: %d iterations, peak %.1f MB, latency %.2f ms \
              (%.1fs)@."
        p.p_id p.p_iterations
        (float_of_int p.p_peak /. 1e6)
        (p.p_latency *. 1e3) p.p_elapsed
  | P.Result o ->
      Fmt.pr "result %s: peak %.1f MB (from %.1f MB), latency %.2f ms, %d \
              iterations%s%s%s%s@."
        o.o_id
        (float_of_int o.o_peak /. 1e6)
        (float_of_int o.o_initial_peak /. 1e6)
        (o.o_latency *. 1e3) o.o_iterations
        (if o.o_resumed then " [resumed]" else "")
        (if o.o_interrupted then " [interrupted]" else "")
        (if o.o_deadline_hit then " [deadline: best-so-far]" else "")
        (if o.o_limit_met then "" else " [limit not met]")
  | P.Error { e_id; kind; detail } ->
      Fmt.pr "error%a %s: %s@."
        Fmt.(option (fun ppf -> pf ppf " %s"))
        e_id
        (P.error_kind_name kind) detail
  | P.Frontier_reply f ->
      if f.fr_feasible then
        Fmt.pr "frontier %s: %d points%s, budget %.1f MB -> peak %.1f MB, \
                latency %.2f ms@."
          f.fr_id f.fr_points
          (if f.fr_cache_hit then " [cache hit]" else "")
          (float_of_int f.fr_budget /. 1e6)
          (float_of_int f.fr_peak /. 1e6)
          (f.fr_latency *. 1e3)
      else
        Fmt.pr "frontier %s: %d points%s, budget %.1f MB -> infeasible@."
          f.fr_id f.fr_points
          (if f.fr_cache_hit then " [cache hit]" else "")
          (float_of_int f.fr_budget /. 1e6)
  | P.Ack op -> Fmt.pr "ack %s@." op
  | P.Health_reply _ | P.Metrics_reply _ -> ()

let cmd_request addr model id full latency_mode overhead mem_ratio deadline
    iterations progress_every sched_states =
  let req =
    {
      (P.request ~id ~model) with
      scale = (if full then Magis_models.Zoo.Full else Magis_models.Zoo.Quick);
      mode =
        (if latency_mode then P.Latency mem_ratio else P.Memory overhead);
      deadline_s = deadline;
      max_iterations = iterations;
      progress_every;
      sched_states;
    }
  in
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.optimize ~on_progress:(fun p -> pp_reply (P.Progress p)) c req with
  | P.Result _ as r ->
      pp_reply r;
      0
  | r ->
      pp_reply r;
      2

let request_cmd =
  let model =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL")
  in
  let id =
    Arg.(value & opt string "cli" & info [ "id" ] ~doc:"Request id.")
  in
  let full = Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale graph.") in
  let latency_mode =
    Arg.(value & flag
         & info [ "latency" ] ~doc:"Minimize latency instead of memory.")
  in
  let overhead =
    Arg.(value & opt float 0.1
         & info [ "max-overhead" ] ~doc:"Latency overhead bound (memory mode).")
  in
  let mem_ratio =
    Arg.(value & opt float 0.5
         & info [ "mem-ratio" ] ~doc:"Peak-memory bound (latency mode).")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"Deadline; expiry returns best-so-far.")
  in
  let iterations =
    Arg.(value & opt int 32 & info [ "iterations" ] ~doc:"Iteration budget.")
  in
  let progress_every =
    Arg.(value & opt int 8
         & info [ "progress-every" ]
             ~doc:"Iterations between progress events (0 = none).")
  in
  let sched_states =
    Arg.(value & opt int 0 & info [ "sched-states" ] ~doc:"DP state budget.")
  in
  Cmd.v
    (Cmd.info "request" ~doc:"Submit one optimization request to the daemon")
    Term.(const cmd_request $ addr_term $ model $ id $ full $ latency_mode
          $ overhead $ mem_ratio $ deadline $ iterations $ progress_every
          $ sched_states)

let cmd_health addr =
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let h = Client.health c in
  Fmt.pr
    "status=%s queue=%d inflight=%d shed=%d served=%d rejected=%d \
     quarantined=%d cache_hit_rate=%.3f@."
    h.status h.queue_depth h.inflight h.shed_level h.served h.rejected
    h.quarantined h.cache_hit_rate;
  if h.status = "ok" || h.status = "paused" || h.status = "draining" then 0
  else 1

let health_cmd =
  Cmd.v
    (Cmd.info "health" ~doc:"Probe a running daemon's health snapshot")
    Term.(const cmd_health $ addr_term)

let cmd_metrics addr =
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  print_string (Client.metrics_text c);
  0

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Scrape a running daemon's metrics (Prometheus text)")
    Term.(const cmd_metrics $ addr_term)

let cmd_load addr clients per_client models iterations deadline =
  let r =
    Loadgen.run_load ~addr ~clients ~per_client
      ~models:(String.split_on_char ',' models)
      ~max_iterations:iterations ?deadline_s:deadline ()
  in
  Fmt.pr
    "sent=%d completed=%d overloaded=%d deadline=%d errors=%d p50=%.1fms \
     p99=%.1fms rejection_rate=%.3f cache_hit_rate=%.3f wall=%.1fs@."
    r.sent r.completed r.overloaded r.deadline r.errors r.p50_ms r.p99_ms
    r.rejection_rate r.cache_hit_rate r.wall_s;
  if r.completed + r.overloaded + r.deadline + r.errors = r.sent then 0 else 1

let load_cmd =
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Concurrent clients.")
  in
  let per_client =
    Arg.(value & opt int 4 & info [ "per-client" ] ~doc:"Requests per client.")
  in
  let models =
    Arg.(value & opt string "unet,resnet-50"
         & info [ "models" ] ~doc:"Comma-separated workload mix.")
  in
  let iterations =
    Arg.(value & opt int 6
         & info [ "iterations" ] ~doc:"Iteration budget per request.")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~doc:"Per-request deadline seconds.")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Drive the daemon with concurrent clients and report latency \
             percentiles, rejection rate and cache hit rate")
    Term.(const cmd_load $ addr_term $ clients $ per_client $ models
          $ iterations $ deadline)

let cmd_chaos addr seed =
  let r = Loadgen.run_chaos ~addr ~seed in
  List.iter
    (fun (name, ok) -> Fmt.pr "%-12s %s@." name (if ok then "PASS" else "FAIL"))
    r.scenarios;
  Fmt.pr "chaos: %d/%d scenarios survived@." r.passed (r.passed + r.failed);
  if r.failed = 0 then 0 else 1

let chaos_cmd =
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Garbage generator seed.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Client-side chaos harness: garbage, oversized lines, \
             disconnects, slow requests, duplicate ids — each asserting the \
             daemon survives and answers")
    Term.(const cmd_chaos $ addr_term $ seed)

let cmd_shutdown addr =
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Client.send c P.Shutdown;
  (match Client.recv c with P.Ack "shutdown" -> () | _ -> ());
  Fmt.pr "draining@.";
  0

let shutdown_cmd =
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Ask a running daemon to drain and exit")
    Term.(const cmd_shutdown $ addr_term)

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "magis_serve"
             ~doc:"Crash-tolerant optimization service for MAGIS")
          [ daemon_cmd; request_cmd; health_cmd; metrics_cmd; load_cmd;
            chaos_cmd; shutdown_cmd ]))
