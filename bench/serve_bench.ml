(** Optimization service (the [serve] experiment): an in-process daemon
    driven through the real socket protocol.

    Phase A is sequential and deterministic — every counter it emits is
    gated exactly by the CI perf-smoke job:

    - three identical requests must return bit-identical peaks while
      the shared simulation cache warms up across them, and the two
      repeats must replay every pop's record from it (the
      [search.refresh_replays] metric rises, the [sim_cache.pops]
      gauge does not);
    - a request with an already-expired deadline must be rejected with
      the structured [deadline] error;
    - a paused burst overfills the bounded queue, producing an exact
      number of [overloaded] rejections, one [duplicate] rejection and
      a health snapshot at the top of the load-shedding ladder, after
      which resuming must serve every queued request.

    Phase B is the concurrent load generator ({!Loadgen.run_load});
    its latency percentiles and cache hit rate depend on scheduling, so
    they are reported under [wall_*] keys (skipped by the gate) while
    the sent/completed/error counts stay gated. *)

module P = Magis_serve.Protocol
module Server = Magis_serve.Server
module Client = Magis_serve.Client
module Loadgen = Magis_serve.Loadgen
open Magis

let run (env : Common.env) =
  Common.hr "Optimization service: admission, deadlines, cache reuse";
  let t0 = Unix.gettimeofday () in
  let tmp = Filename.get_temp_dir_name () in
  let tag = Printf.sprintf "magis-serve-bench-%d" (Unix.getpid ()) in
  let cfg =
    {
      Server.addr = P.Unix_sock (Filename.concat tmp (tag ^ ".sock"));
      workers = 2;
      queue_cap = 8;
      per_client_limit = 64;
      ckpt_dir = Filename.concat tmp tag;
      ckpt_every = 0.25;
      write_timeout = 5.0;
      verbose = false;
    }
  in
  let server = Server.create cfg in
  let daemon = Domain.spawn (fun () -> Server.run server) in
  let addr = cfg.addr in
  let iters = min env.iters 6 in
  let c = Client.connect addr in

  (* -------- Phase A: sequential, every counter deterministic -------- *)
  let result id =
    match
      Client.optimize c
        { (P.request ~id ~model:"unet") with max_iterations = iters }
    with
    | P.Result o -> o
    | r ->
        failwith
          (Printf.sprintf "serve bench: unexpected reply %s"
             (P.reply_to_string r))
  in
  (* the daemon records metrics while it runs *)
  let replays () =
    Metrics.counter_value (Metrics.counter "search.refresh_replays")
  and pops () = Metrics.gauge_value (Metrics.gauge "sim_cache.pops") in
  let r1 = result "warm-0" in
  let h_cold = Client.health c in
  let replays_cold = replays () and pops_cold = pops () in
  let r2 = result "warm-1" in
  let r3 = result "warm-2" in
  let h_warm = Client.health c in
  let repeat_identical = r1.o_peak = r2.o_peak && r2.o_peak = r3.o_peak in
  let cache_warm = h_warm.cache_hit_rate > h_cold.cache_hit_rate in
  let repeat_replays = replays () - replays_cold in
  let repeat_replayed = repeat_replays > 0 && pops () = pops_cold in
  Printf.printf
    "A1 identical requests: peak %.1f MB (from %.1f MB), identical %b, \
     cache hit rate %.2f -> %.2f, repeats replayed %d refreshes (all %b)\n"
    (float_of_int r1.o_peak /. 1e6)
    (float_of_int r1.o_initial_peak /. 1e6)
    repeat_identical h_cold.cache_hit_rate h_warm.cache_hit_rate
    repeat_replays repeat_replayed;
  let deadline_rejects =
    match
      Client.optimize c
        {
          (P.request ~id:"dl" ~model:"unet") with
          max_iterations = iters;
          deadline_s = Some 0.0;
        }
    with
    | P.Error { kind = P.Deadline; _ } -> 1
    | _ -> 0
  in
  Printf.printf "A2 expired deadline: %d structured rejection(s)\n"
    deadline_rejects;
  (* Paused burst: dispatch is stopped, so admission outcomes depend
     only on the queue bound — exact counts, exact shed level. *)
  Client.send c P.Pause;
  let n_burst = cfg.queue_cap + 4 in
  let burst i =
    P.Optimize
      {
        (P.request ~id:(Printf.sprintf "burst-%d" i) ~model:"unet") with
        max_iterations = 3;
      }
  in
  for i = 0 to n_burst - 1 do
    Client.send c (burst i)
  done;
  Client.send c (burst 0);
  (* duplicate of a queued id *)
  Client.send c P.Health;
  let overloaded = ref 0
  and dup = ref 0
  and results = ref 0
  and health_at_burst = ref None in
  while !results < cfg.queue_cap do
    match Client.recv c with
    | P.Error { kind = P.Overloaded; _ } -> incr overloaded
    | P.Error { kind = P.Duplicate; _ } -> incr dup
    | P.Health_reply h ->
        (* snapshot taken while still paused, queue full; only now
           release the queue *)
        health_at_burst := Some h;
        Client.send c P.Resume
    | P.Result _ -> incr results
    | _ -> ()
  done;
  let hb =
    match !health_at_burst with
    | Some h -> h
    | None -> failwith "serve bench: no health reply during the burst"
  in
  Printf.printf
    "A3 paused burst of %d: %d queued+served, %d overloaded, %d duplicate; \
     paused snapshot: depth %d, shed level %d, status %s\n"
    (n_burst + 1) !results !overloaded !dup hb.queue_depth hb.shed_level
    hb.status;

  (* -------- Phase B: concurrent load ------------------------------- *)
  let rep =
    Loadgen.run_load ~addr ~clients:4 ~per_client:4
      ~models:Zoo.smoke_pair ~max_iterations:iters ()
  in
  Printf.printf
    "B  load 4x4: %d/%d completed, %d overloaded, %d errors, p50 %.0f ms, \
     p99 %.0f ms, cache hit rate %.2f\n"
    rep.completed rep.sent rep.overloaded rep.errors rep.p50_ms rep.p99_ms
    rep.cache_hit_rate;

  let h_final = Client.health c in
  Client.send c P.Shutdown;
  Client.close c;
  Domain.join daemon;
  Common.remove_tree cfg.ckpt_dir;
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf
    "daemon served %d, rejected %d, quarantined %d; drained cleanly in \
     %.1fs\n"
    h_final.served h_final.rejected h_final.quarantined wall;
  Common.write_stats_json env
    [
      ("a_repeat_identical", Json.Bool repeat_identical);
      ("a_best_peak", Json.Int r1.o_peak);
      ("a_initial_peak", Json.Int r1.o_initial_peak);
      ("a_cache_warm", Json.Bool cache_warm);
      ("a_repeat_refresh_replays", Json.Int repeat_replays);
      ("a_repeat_replayed", Json.Bool repeat_replayed);
      ("a_deadline_rejects", Json.Int deadline_rejects);
      ("a_burst_sent", Json.Int (n_burst + 1));
      ("a_burst_overloaded", Json.Int !overloaded);
      ("a_burst_duplicate", Json.Int !dup);
      ("a_burst_results", Json.Int !results);
      ("a_paused_queue_depth", Json.Int hb.queue_depth);
      ("a_paused_shed_level", Json.Int hb.shed_level);
      ("a_paused_status", Json.Bool (hb.status = "paused"));
      ("served_total", Json.Int h_final.served);
      ("rejected_total", Json.Int h_final.rejected);
      ("quarantined_total", Json.Int h_final.quarantined);
      ("b_sent", Json.Int rep.sent);
      ("b_completed", Json.Int rep.completed);
      ("b_overloaded", Json.Int rep.overloaded);
      ("b_errors", Json.Int rep.errors);
      ("wall_b_p50_ms", Json.Float rep.p50_ms);
      ("wall_b_p99_ms", Json.Float rep.p99_ms);
      ("wall_b_cache_hit_rate", Json.Float rep.cache_hit_rate);
      ("drained", Json.Bool true);
    ]
