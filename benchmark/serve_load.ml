(** Workloads [serve-hot] and [serve-cold]: the shipped [magis_serve]
    daemon, run as its own process with one worker, driven by closed-loop
    clients from this process.

    - [serve-hot]: the read path.  Set-up warms the daemon's caches with
      one [optimize] per spec and one frontier build per (model,
      hardware); then one client sends a seeded alternation of repeated
      [optimize] requests and [frontier] queries at seeded budgets.
    - [serve-cold]: the write path under queueing.  Two clients pull from
      one seeded shuffle of distinct specs, so no cache key repeats and
      every request waits behind the other client's.

    Outside the timed window, a seeded sample of [optimize] results is
    re-run in process with the daemon's own search configuration and
    must match bit for bit, and every frontier answer is checked against
    a scan of the frontier the daemon saved. *)

open Magis
module M = Measure
module P = Magis_serve.Protocol
module Client = Magis_serve.Client
module Server = Magis_serve.Server

(* Iteration cap of every request: serve-hot repeats few specs, so each
   can afford the search-zoo cap; serve-cold halves it to fit over a
   hundred distinct specs in a run, enough for a p90 tail. *)
let hot_iterations = 8
let cold_iterations = 4

(* Bench spans carry the client thread, so the self-time table can keep
   the two serve-cold clients' spans apart. *)
let span name f =
  Trace.with_span ~cat:"bench"
    ~args:[ ("thread", string_of_int (Thread.id (Thread.self ()))) ]
    name f

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; addr : P.addr; ckpt : string }

let daemon_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/magis_serve.exe"

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, status -> Some status

(* Spawn a daemon in a fresh directory and poll until it answers health,
   every 0.1 ms (not through [Client.connect ~retries], which sleeps
   100 ms between attempts: a coarse poll times its own interval).
   Returns the daemon and the connected client. *)
let spawn ~dir =
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "d.sock" in
  let ckpt = Filename.concat dir "ckpt" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let exe = daemon_exe () in
  let pid =
    Unix.create_process exe
      [| exe; "daemon"; "--socket"; sock; "--workers"; "1";
         "--ckpt-dir"; ckpt |]
      Unix.stdin log log
  in
  Unix.close log;
  let addr = P.Unix_sock sock in
  let deadline = M.now () +. 60.0 in
  let rec poll () =
    match Client.connect ~retries:0 addr with
    | c -> (
        match Client.health c with
        | _ -> c
        | exception _ ->
            Client.close c;
            retry ())
    | exception Unix.Unix_error _ -> retry ()
  and retry () =
    (match exited pid with
    | Some _ -> failwith "daemon exited during start-up"
    | None -> ());
    if M.now () > deadline then failwith "daemon not healthy after 60 s";
    Unix.sleepf 0.0001;
    poll ()
  in
  ({ pid; addr; ckpt }, poll ())

(* SIGTERM drains the daemon; it must exit 0.  Returns its VmHWM, read
   before the signal. *)
let stop r d client =
  let rss = M.peak_rss_mb (string_of_int d.pid) in
  Client.close client;
  Unix.kill d.pid Sys.sigterm;
  let _, status = Unix.waitpid [] d.pid in
  M.check r ~ok:(status = Unix.WEXITED 0)
    (lazy "daemon did not exit 0 after SIGTERM");
  Option.value rss ~default:0.0

(* Last resort on an exception: never leave a daemon behind. *)
let kill d =
  match exited d.pid with
  | Some _ | (exception Unix.Unix_error (Unix.ECHILD, _, _)) -> ()
  | None ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)

(* ------------------------------------------------------------------ *)
(* Requests and their checks                                           *)
(* ------------------------------------------------------------------ *)

let hot_hw_names = [ "rtx3090"; "a100" ]
let cold_hw_names = Hardware.names

let opt_request ~id ~iterations (model, mode) =
  { (P.request ~id ~model) with mode; max_iterations = iterations }

let frontier_request ~id ~iterations ~model ~hw ~ratio =
  {
    (P.frontier_request ~id ~model) with
    f_hw = hw;
    f_budget_ratio = ratio;
    f_max_iterations = iterations;
  }

type opt_done = { req : P.request; out : P.outcome; ms : float }
type frontier_done = {
  freq : P.frontier_request;
  ans : P.frontier_answer;
  fms : float;
}

type ledger = {
  r : M.report;
  lock : Mutex.t;
  mutable opts : opt_done list;
  mutable frontiers : frontier_done list;
}

let record l f =
  Mutex.lock l.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock l.lock) f

let send_optimize l client req =
  let reply, dt =
    M.time (fun () ->
        span "Client.optimize" (fun () -> Client.optimize client req))
  in
  record l @@ fun () ->
  match reply with
  | P.Result o ->
      M.attempt l.r
        ~ok:
          (o.o_iterations = req.max_iterations && (not o.o_deadline_hit)
          && (not o.o_interrupted) && o.o_quarantined = 0)
        (lazy
          (Printf.sprintf "%s: iterations %d, deadline %b, interrupted %b, \
                           quarantined %d" req.P.id o.o_iterations
             o.o_deadline_hit o.o_interrupted o.o_quarantined));
      l.opts <- { req; out = o; ms = dt *. 1e3 } :: l.opts
  | P.Error e ->
      M.attempt l.r ~ok:false
        (lazy
          (Printf.sprintf "%s: %s %s" req.P.id (P.error_kind_name e.kind)
             e.detail))
  | _ -> M.attempt l.r ~ok:false (lazy (req.P.id ^ ": unexpected reply"))

let send_frontier l client ~hit f =
  let reply, dt =
    M.time (fun () ->
        span "Client.frontier" (fun () -> Client.frontier client f))
  in
  record l @@ fun () ->
  match reply with
  | P.Frontier_reply a ->
      M.attempt l.r ~ok:(a.fr_cache_hit = hit)
        (lazy
          (Printf.sprintf "%s: cache_hit %b, expected %b" f.P.f_id
             a.fr_cache_hit hit));
      l.frontiers <- { freq = f; ans = a; fms = dt *. 1e3 } :: l.frontiers
  | P.Error e ->
      M.attempt l.r ~ok:false
        (lazy
          (Printf.sprintf "%s: %s %s" f.P.f_id (P.error_kind_name e.kind)
             e.detail))
  | _ -> M.attempt l.r ~ok:false (lazy (f.P.f_id ^ ": unexpected reply"))

(* The daemon's frontier configuration for a query, so the benchmark can
   find the file the daemon saved under the same key. *)
let load_frontier ~dir (f : P.frontier_request) =
  let config =
    { Search.default_config with
      sched_states = f.f_sched_states; max_iterations = f.f_max_iterations }
  in
  let graph = (Zoo.find f.f_model).build f.f_scale in
  let key =
    Frontier_build.key ~config Zoo_search.frontier_mode
      ~hw:(Hardware.find f.f_hw) graph
  in
  M.time (fun () -> Frontier_cache.load ~dir ~key)

(* Every frontier answer against a linear scan of the saved frontier's
   points. *)
let check_frontiers l ~dir =
  let loads = ref [] and frontiers = Hashtbl.create 8 in
  List.iter
    (fun { freq = f; ans = a; _ } ->
      match load_frontier ~dir f with
      | None, _ ->
          M.check l.r ~ok:false (lazy (f.f_id ^ ": no saved frontier"))
      | Some fr, dl ->
          loads := (dl *. 1e3) :: !loads;
          Hashtbl.replace frontiers (f.f_model, f.f_hw) fr;
          let ratio = f.f_budget_ratio in
          let budget = Frontier_build.budget_of_ratio fr ~ratio in
          let best = Zoo_search.scan_answer fr ~ratio in
          let ok =
            a.fr_budget = budget
            && a.fr_points = Frontier.size fr
            &&
            match best with
            | None -> not a.fr_feasible
            | Some p ->
                a.fr_feasible && a.fr_peak = p.peak
                && M.same_bits a.fr_latency p.latency
          in
          M.check l.r ~ok
            (lazy (f.f_id ^ ": answer differs from a scan of the frontier")))
    l.frontiers;
  (!loads, List.of_seq (Hashtbl.to_seq_values frontiers))

(* The search the daemon runs for [req], in process: the daemon's own
   configuration (at shed level 0), its baseline and mode mapping.
   [server] is never run; it only supplies [Server.search_config]. *)
let rerun server (req : P.request) =
  let config =
    { (Server.search_config server ~shed:0 req) with time_budget = 3600.0 }
  in
  let graph = (Zoo.find req.model).build req.scale in
  let cache = Op_cost.create Hardware.default in
  let base = Simulator.run cache graph (Graph.topo_order graph) in
  let mode =
    match req.mode with
    | P.Memory o -> Search.Min_memory { lat_limit = base.latency *. (1.0 +. o) }
    | P.Latency ratio ->
        Search.Min_latency
          { mem_limit = int_of_float (float_of_int base.peak_mem *. ratio) }
  in
  M.time (fun () ->
      span "Search.run (rerun)" (fun () -> Search.run ~config cache mode graph))

let check_bitwise l server (d : opt_done) =
  let res, dt = rerun server d.req in
  let o = d.out in
  M.check l.r
    ~ok:
      (o.o_initial_peak = res.initial.peak_mem
      && o.o_peak = res.best.peak_mem
      && M.same_bits o.o_latency res.best.latency
      && o.o_iterations = res.stats.iterations)
    (lazy (d.req.id ^ ": daemon result differs from the in-process search"));
  (res, dt)

(* ------------------------------------------------------------------ *)
(* Metrics scrape                                                      *)
(* ------------------------------------------------------------------ *)

let scrape client =
  span "Client.metrics_text" (fun () -> Client.metrics_text client)
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ name; v ] ->
             Option.map (fun v -> (name, v)) (float_of_string_opt v)
         | _ -> None)

let delta before after name =
  let get l = Option.value (List.assoc_opt name l) ~default:0.0 in
  get after -. get before

let shuffle = Zoo_search.shuffle_list

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let hot_specs =
  List.concat_map
    (fun m -> [ (m, P.Memory 0.1); (m, P.Latency 0.95) ])
    Zoo.smoke_pair

let cold_specs =
  List.concat_map
    (fun m ->
      List.map (fun o -> (m, P.Memory o))
        [ 0.02; 0.04; 0.06; 0.08; 0.10; 0.15; 0.20; 0.30 ]
      @ List.map (fun r -> (m, P.Latency r))
          [ 0.93; 0.94; 0.95; 0.96; 0.97; 0.98; 0.99 ])
    Zoo.names

(* Nominal request rates that set a run's fixed request count from
   [--seconds]: constants, so the work never depends on the host. *)
let hot_cycles_per_second = 8.0
let hot_setup_repeats = 3
let cold_segments = 4
let cold_setup_repeats = 5

type probes = {
  mutable health_ms : float list;
  mutable depth : float list;
  mutable shed_max : int;
}

let probe pr c =
  let h, dt =
    M.time (fun () -> span "Client.health" (fun () -> Client.health c))
  in
  pr.health_ms <- (dt *. 1e3) :: pr.health_ms;
  pr.depth <- float_of_int h.queue_depth :: pr.depth;
  pr.shed_max <- max pr.shed_max h.shed_level

(* Request ids, unique across both client threads. *)
let next_id =
  let n = Atomic.make 0 in
  fun prefix -> Printf.sprintf "%s%d" prefix (Atomic.fetch_and_add n 1)

(* serve-hot set-up: one optimize per spec and one frontier build per
   (model, hardware) *)
let warm l client =
  List.iter
    (fun spec ->
      send_optimize l client
        (opt_request ~id:(next_id "w") ~iterations:hot_iterations spec))
    hot_specs;
  List.iter
    (fun model ->
      List.iter
        (fun hw ->
          send_frontier l client ~hit:false
            (frontier_request ~id:(next_id "wf") ~iterations:hot_iterations
               ~model ~hw ~ratio:1.0))
        hot_hw_names)
    Zoo.smoke_pair

(* One client, a fixed seeded alternation: an optimize repeat, then
   frontier queries, then a health probe.  Specs and (model, hardware)
   pairs come in seeded permutations, so every run has the same mix and
   the seed only sets the order and the budgets.  Every other cycle the
   daemon idles for one host-speed sample; returns the seconds those
   took. *)
let load_hot l pr client ~rng ~seconds =
  let cycles =
    max 1 (int_of_float (float_of_int seconds *. hot_cycles_per_second))
  in
  let pairs =
    List.concat_map
      (fun m -> List.map (fun hw -> (m, hw)) hot_hw_names)
      Zoo.smoke_pair
  in
  let specs = ref [] and paused = ref 0.0 in
  for cycle = 1 to cycles do
    if !specs = [] then specs := shuffle rng hot_specs;
    let spec = List.hd !specs in
    specs := List.tl !specs;
    send_optimize l client
      (opt_request ~id:(next_id "o") ~iterations:hot_iterations spec);
    List.iter
      (fun (model, hw) ->
        let ratio = 1.0 -. Random.State.float rng 0.7 in
        send_frontier l client ~hit:true
          (frontier_request ~id:(next_id "f") ~iterations:hot_iterations ~model
             ~hw ~ratio))
      (shuffle rng pairs);
    probe pr client;
    if cycle mod 2 = 0 then paused := !paused +. fst (M.sample_host ~n:1 ())
  done;
  !paused

(* Two clients on two connections pull from one seeded shuffle of every
   distinct spec; the first also probes health between its requests.
   The list is served in [cold_segments] parts, with the daemon idle for
   a burst of host-speed samples between them; returns the seconds those
   took. *)
let load_cold l pr client (d : daemon) ~rng =
  let all =
    shuffle rng
      (List.map (fun s -> `Opt s) cold_specs
      @ List.concat_map
          (fun model ->
            List.map (fun hw -> `Frontier (model, hw)) cold_hw_names)
          Zoo.names)
  in
  let work = ref [] in
  let next () =
    record l @@ fun () ->
    match !work with
    | [] -> None
    | w :: rest ->
        work := rest;
        Some w
  in
  let client_loop ~health c =
    let rec go () =
      match next () with
      | None -> ()
      | Some (`Opt spec) ->
          send_optimize l c
            (opt_request ~id:(next_id "o") ~iterations:cold_iterations spec);
          if health then probe pr c;
          go ()
      | Some (`Frontier (model, hw)) ->
          send_frontier l c ~hit:false
            (frontier_request ~id:(next_id "f") ~iterations:cold_iterations
               ~model ~hw ~ratio:0.5);
          if health then probe pr c;
          go ()
    in
    go ()
  in
  let second = Client.connect ~retries:0 d.addr in
  Fun.protect ~finally:(fun () -> Client.close second) @@ fun () ->
  let per = (List.length all + cold_segments - 1) / cold_segments in
  let paused = ref 0.0 in
  List.iteri
    (fun k _ ->
      if k > 0 then paused := !paused +. fst (M.sample_host ~n:3 ());
      work := List.filteri (fun i _ -> i / per = k) all;
      let t = Thread.create (fun () -> client_loop ~health:false second) () in
      client_loop ~health:true client;
      Thread.join t)
    (List.init cold_segments Fun.id);
  !paused

(* The first result of each distinct spec, in request order. *)
let distinct_specs opts =
  List.fold_left
    (fun acc (o : opt_done) ->
      let spec = (o.req.model, o.req.mode) in
      if List.mem_assoc spec acc then acc else (spec, o) :: acc)
    [] opts
  |> List.rev

let run ~hot ~seed ~seconds ~trace ~tmp =
  let r = M.report () in
  let l = { r; lock = Mutex.create (); opts = []; frontiers = [] } in
  let rng = Random.State.make [| seed |] in
  if trace then Layers.start_trace ();
  let _, near = M.sample_host () in
  let n_daemon = ref 0 in
  let fresh () =
    incr n_daemon;
    spawn ~dir:(Filename.concat tmp (Printf.sprintf "d%d" !n_daemon))
  in
  (* set-up, repeated: daemon start until healthy, plus the warm-up on
     serve-hot; the last daemon serves the load *)
  let setup () =
    M.time (fun () ->
        let d, client = span "daemon start" fresh in
        (try if hot then span "warm-up" (fun () -> warm l client)
         with e -> kill d; raise e);
        (d, client))
  in
  let rec setups k acc =
    let (d, client), dt = setup () in
    if k = 1 then (d, client, dt :: acc)
    else begin
      ignore (stop r d client : float);
      setups (k - 1) (dt :: acc)
    end
  in
  let d, client, setup_times =
    setups (if hot then hot_setup_repeats else cold_setup_repeats) []
  in
  M.e2e ~scaling:(Time_near near) r "setup_s" "s" (M.median setup_times);
  let warm_opts = l.opts in
  l.opts <- [];
  l.frontiers <- [];
  let pr = { health_ms = []; depth = []; shed_max = 0 } in
  let before, after, h0, h1, wall, rss =
    Fun.protect ~finally:(fun () -> kill d) @@ fun () ->
    ignore (M.sample_host ());
    let before = scrape client and h0 = Client.health client in
    let t0 = M.now () in
    let paused =
      if hot then load_hot l pr client ~rng ~seconds
      else load_cold l pr client d ~rng
    in
    let wall = M.now () -. t0 -. paused in
    let after = scrape client and h1 = Client.health client in
    ignore (M.sample_host ());
    (before, after, h0, h1, wall, stop r d client)
  in
  (* fixed-work assertions over the load phase *)
  let n_req = List.length l.opts + List.length l.frontiers in
  M.check r
    ~ok:(h1.rejected = h0.rejected && pr.shed_max = 0
        && h1.served - h0.served = n_req)
    (lazy
      (Printf.sprintf "load phase: %d rejected, shed level reached %d, \
                       %d served of %d" (h1.rejected - h0.rejected) pr.shed_max
         (h1.served - h0.served) n_req));
  (* e2e *)
  let opt_ms = List.map (fun o -> o.ms) l.opts in
  let fr_ms = List.map (fun f -> f.fms) l.frontiers in
  M.e2e r "opt_p50_ms" "ms"
    (M.group_p50
       (List.map
          (fun o ->
            let kind =
              match o.req.mode with P.Memory _ -> 0 | P.Latency _ -> 1
            in
            ((o.req.model, kind), o.ms))
          l.opts));
  let p, tail = M.tail opt_ms in
  Printf.printf "opt tail: p%g of %d requests\n" p (List.length opt_ms);
  M.e2e r "opt_tail_ms" "ms" tail;
  M.e2e r "frontier_p50_ms" "ms"
    (M.group_p50 (List.map (fun f -> (f.freq.f_model, f.fms)) l.frontiers));
  M.e2e ~scaling:Rate r "req_per_s" "1/s" (float_of_int n_req /. wall);
  (* repeats of a spec must give its first answer; warm-up answers are
     the first on serve-hot *)
  let firsts = distinct_specs (List.rev_append warm_opts (List.rev l.opts)) in
  List.iter
    (fun (o : opt_done) ->
      let f = List.assoc (o.req.model, o.req.mode) firsts in
      M.check r
        ~ok:(f.out.o_peak = o.out.o_peak
            && M.same_bits f.out.o_latency o.out.o_latency)
        (lazy (o.req.id ^ ": a repeated spec changed its answer")))
    l.opts;
  (* the search's initial state, built here independently of the daemon *)
  let initials = Hashtbl.create 8 in
  let initial model =
    match Hashtbl.find_opt initials model with
    | Some s -> s
    | None ->
        let s =
          Mstate.init ~sched_states:0 (Op_cost.create Hardware.default)
            ((Zoo.find model).build Zoo.Quick)
        in
        Hashtbl.add initials model s;
        s
  in
  List.iter
    (fun ((model, _), (o : opt_done)) ->
      M.check r
        ~ok:(o.out.o_initial_peak = (initial model).peak_mem)
        (lazy (o.req.id ^ ": initial peak differs from the initial state's")))
    firsts;
  let ratios pick =
    List.filter_map
      (fun ((model, mode), (o : opt_done)) -> pick model mode o.out)
      firsts
  in
  M.e2e ~scaling:Fixed r "peak_ratio" "ratio"
    (M.geomean
       (ratios (fun _ mode o ->
            match mode with
            | P.Memory _ ->
                Some (float_of_int o.o_peak /. float_of_int o.o_initial_peak)
            | P.Latency _ -> None)));
  M.e2e ~scaling:Fixed r "latency_ratio" "ratio"
    (M.geomean
       (ratios (fun model mode o ->
            match mode with
            | P.Latency _ -> Some (o.o_latency /. (initial model).latency)
            | P.Memory _ -> None)));
  M.e2e ~scaling:Fixed r "peak_rss_mb" "MB" rss;
  (* outside the timed window: bit-for-bit reruns of a seeded sample of
     distinct specs *)
  let sample = if hot then 2 else 3 in
  let server =
    Server.create
      { Server.default_config with ckpt_dir = Filename.concat tmp "rerun" }
  in
  let reruns =
    shuffle rng firsts
    |> List.filteri (fun i _ -> i < sample)
    |> List.map (fun (_, o) -> check_bitwise l server o)
  in
  let loads, frontiers = check_frontiers l ~dir:d.ckpt in
  (* per-layer *)
  let dv = delta before after in
  let per_req x = x /. float_of_int n_req in
  let ratio a b = if a +. b = 0.0 then 0.0 else a /. (a +. b) in
  M.layer r "cost.sim_cache_hit_ratio" "ratio"
    (ratio (dv "sim_cache.hits") (dv "sim_cache.misses"));
  M.layer r "cost.sim_cache_delta_entries" "count"
    (dv "sim_cache.delta_entries");
  M.layer r "cost.simulator_runs_per_req" "count"
    (per_req (dv "simulator.runs"));
  M.layer r "cost.op_cost_hit_ratio" "ratio"
    (ratio (dv "op_cost.hits") (dv "op_cost.misses"));
  M.layer r "opt.iterations_per_req" "count" (per_req (dv "search.iterations"));
  M.layer r "resilience.checkpoint_saves_per_req" "count"
    (per_req (dv "checkpoint.saves"));
  M.layer r "serve.health_rtt_ms" "ms" (M.median pr.health_ms);
  M.layer r "serve.queue_depth_mean" "count" (M.mean pr.depth);
  M.layer r "serve.shed_level_max" "count" (float_of_int pr.shed_max);
  M.layer r "serve.served" "count" (float_of_int (h1.served - h0.served));
  M.layer r "serve.rejected" "count" (float_of_int (h1.rejected - h0.rejected));
  M.layer r "serve.frontier_hits" "count" (dv "serve.frontier_hits");
  M.layer r "serve.frontier_built" "count" (dv "serve.frontier_built");
  let p, ftail = M.tail fr_ms in
  Printf.printf "frontier tail: p%g of %d requests\n" p (List.length fr_ms);
  M.layer r "serve.frontier_tail_ms" "ms" ftail;
  M.layer r "frontier.cache_load_ms" "ms" (M.median loads);
  let selftimes = Layers.self_times () in
  if trace then begin
    Layers.search_layers r
      (List.map (fun ((res : Search.result), _) -> res.stats) reruns)
      (List.map snd reruns);
    let cmd = P.Optimize (List.hd l.opts).req in
    let reply = P.Result (List.hd l.opts).out in
    let line = P.reply_to_string reply in
    let fcmd = P.Frontier (List.hd l.frontiers).freq in
    let fline =
      P.reply_to_string (P.Frontier_reply (List.hd l.frontiers).ans)
    in
    M.layer r "protocol.encode_us" "us"
      (M.geomean
         [ Probes.us "encode optimize" (fun () -> P.command_to_string cmd);
           Probes.us "encode frontier" (fun () -> P.command_to_string fcmd) ]);
    M.layer r "protocol.decode_us" "us"
      (M.geomean
         [ Probes.us "decode result" (fun () -> P.reply_of_string line);
           Probes.us "decode frontier" (fun () -> P.reply_of_string fline) ]);
    Probes.frontier_query r (List.filteri (fun i _ -> i < 4) frontiers);
    Layers.stop_trace selftimes
  end;
  (r, selftimes.chrome)
