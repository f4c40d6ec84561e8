(** The optimization daemon (see the interface for the contract).

    Threading model: the caller of {!run} becomes the IO domain — a
    [select] event loop over the listening socket, a self-pipe and every
    client connection.  It never blocks on a client: reads happen only
    when [select] reports data, writes carry an [SO_SNDTIMEO] so a
    slow-loris reader is declared dead instead of wedging anyone.
    [workers] extra domains execute admitted requests; they write
    progress and terminal replies directly to the client socket under a
    per-connection mutex.  Workers never close file descriptors — they
    only mark the connection dead and wake the IO loop, which owns every
    fd, so no worker can race a close against a concurrent write.

    Signals: the {!Magis_resilience.Interrupt} callback only flips an
    atomic and writes one byte to the self-pipe (both safe inside a
    signal handler); the IO loop performs the actual drain transition
    under the queue lock in normal context.  In-flight searches observe
    SIGTERM through the interrupt guard; a drain initiated by {!stop} or
    a [shutdown] command instead stops each search at its next slice
    boundary, so both paths return best-so-far results.

    Each request runs as a sequence of checkpoint-resumed search slices:
    the trajectory fingerprint excludes iteration and time budgets, so a
    slice continues bit-identically from the previous one — the same
    mechanism gives progress streaming, prompt cancellation, deadline
    best-so-far and crash recovery. *)

module Json = Magis_obs.Json
module Trace = Magis_obs.Trace
module Metrics = Magis_obs.Metrics
module Fault = Magis_resilience.Fault
module Retry = Magis_resilience.Retry
module Checkpoint = Magis_resilience.Checkpoint
module Interrupt = Magis_resilience.Interrupt
module Graph = Magis_ir.Graph
module Hardware = Magis_cost.Hardware
module Op_cost = Magis_cost.Op_cost
module Simulator = Magis_cost.Simulator
module Sim_cache = Magis_cost.Sim_cache
module Search = Magis_opt.Search
module Zoo = Magis_models.Zoo
module Frontier = Magis_frontier.Frontier
module Frontier_cache = Magis_frontier.Frontier_cache
module Frontier_build = Magis_frontier.Frontier_build
module P = Protocol

type config = {
  addr : P.addr;
  workers : int;
  queue_cap : int;
  per_client_limit : int;
  ckpt_dir : string;
  ckpt_every : float;
  slice_iterations : int;
  write_timeout : float;
  verbose : bool;
}

let default_config =
  {
    addr = P.Unix_sock "magis.sock";
    workers = 2;
    queue_cap = 16;
    per_client_limit = 4;
    ckpt_dir = "_serve_ckpt";
    ckpt_every = 0.25;
    slice_iterations = 8;
    write_timeout = 5.0;
    verbose = false;
  }

(* request-level counters in the shared registry; the daemon also keeps
   its own atomics (authoritative for health replies — the registry can
   be reset by a metrics scrape consumer) *)
let m_conns = Metrics.counter "serve.connections"
let m_requests = Metrics.counter "serve.requests"
let m_served = Metrics.counter "serve.served"
let m_rejected = Metrics.counter "serve.rejected"
let m_quarantined = Metrics.counter "serve.quarantined"
let m_cancelled = Metrics.counter "serve.cancelled"
let m_deadline = Metrics.counter "serve.deadline"
let m_resumed = Metrics.counter "serve.resumed"
let m_frontier_hits = Metrics.counter "serve.frontier_hits"
let m_frontier_built = Metrics.counter "serve.frontier_built"
let g_queue = Metrics.gauge "serve.queue_depth"
let g_inflight = Metrics.gauge "serve.inflight"
let g_shed = Metrics.gauge "serve.shed_level"

type conn = {
  cid : int;
  fd : Unix.file_descr;
  rbuf : Buffer.t;
  wlock : Mutex.t;
  alive : bool Atomic.t;
  inflight : int Atomic.t;  (** queued + running requests of this client *)
}

(* What a worker executes: an ordinary optimization, or a frontier
   build for a query that missed the cache (hits never become jobs —
   the IO domain answers them directly). *)
type task = Opt_task of P.request | Frontier_task of P.frontier_request

let task_id = function
  | Opt_task (r : P.request) -> r.id
  | Frontier_task (f : P.frontier_request) -> f.f_id

let task_model = function
  | Opt_task (r : P.request) -> r.model
  | Frontier_task (f : P.frontier_request) -> f.f_model

type job = { jconn : conn; jtask : task; t_admit : float; jshed : int }

type t = {
  cfg : config;
  qlock : Mutex.t;
  qcond : Condition.t;
  queue : job Queue.t;
  mutable paused : bool;
  mutable draining : bool;  (** mirrors [drain_flag], guarded by [qlock] *)
  drain_flag : bool Atomic.t;
  running : int Atomic.t;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  cache : Op_cost.t;
  sim_cache : Sim_cache.t;
  flock : Mutex.t;
  frontiers : (int64, Magis_frontier.Frontier.t) Hashtbl.t;
      (** in-memory frontier memo over the on-disk cache; [flock] *)
  ids : (string, unit) Hashtbl.t;  (** in-flight request ids; [qlock] *)
  mutable quarantine : (int * string * string) list;  (** newest first *)
  served : int Atomic.t;
  rejected : int Atomic.t;
  n_quar : int Atomic.t;
  cancelled : int Atomic.t;
}

let create cfg =
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_w;
  {
    cfg;
    qlock = Mutex.create ();
    qcond = Condition.create ();
    queue = Queue.create ();
    paused = false;
    draining = false;
    drain_flag = Atomic.make false;
    running = Atomic.make 0;
    pipe_r;
    pipe_w;
    cache = Op_cost.create Hardware.default;
    sim_cache = Sim_cache.create ();
    flock = Mutex.create ();
    frontiers = Hashtbl.create 16;
    ids = Hashtbl.create 64;
    quarantine = [];
    served = Atomic.make 0;
    rejected = Atomic.make 0;
    n_quar = Atomic.make 0;
    cancelled = Atomic.make 0;
  }

let log t fmt =
  if t.cfg.verbose then Fmt.epr ("magis-serve: " ^^ fmt ^^ "@.")
  else Format.ifprintf Format.err_formatter fmt

(* Wake the IO loop; safe from workers and from a signal handler (the
   pipe is non-blocking, so a full pipe is simply an already-pending
   wakeup). *)
let wake t = try ignore (Unix.write_substring t.pipe_w "x" 0 1) with _ -> ()

let stop t =
  Atomic.set t.drain_flag true;
  wake t

(* ------------------------------------------------------------------ *)
(* Checkpoint naming                                                   *)
(* ------------------------------------------------------------------ *)

(* Request ids are client-chosen: sanitize before using one as a file
   name (no traversal), and append a hash of the original so distinct
   ids cannot collide after sanitization. *)
let ckpt_path cfg id =
  let safe =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '_')
      id
  in
  Filename.concat cfg.ckpt_dir
    (Printf.sprintf "req-%s-%08x.ckpt" safe (Hashtbl.hash id))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Connection IO                                                       *)
(* ------------------------------------------------------------------ *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (off + n) (len - n)
  end

(* Mark a connection dead: in-flight searches observe this through
   their [cancel] hook; the IO loop closes the fd once nothing is
   running against it. *)
let mark_dead t conn =
  if Atomic.exchange conn.alive false then begin
    log t "client %d gone" conn.cid;
    wake t
  end

(* Serialize and send one reply line.  Any write failure — injected
   [sock_write] fault, broken pipe, [SO_SNDTIMEO] expiry on a
   slow-loris reader — declares the connection dead; it never escapes
   to the caller, and never kills the daemon. *)
let send t conn reply =
  if Atomic.get conn.alive then begin
    let line = P.reply_to_string reply ^ "\n" in
    Mutex.lock conn.wlock;
    let ok =
      try
        Fault.hit "sock_write";
        write_all conn.fd line 0 (String.length line);
        true
      with _ -> false
    in
    Mutex.unlock conn.wlock;
    if not ok then mark_dead t conn
  end

let send_error t conn ?id kind detail =
  send t conn (P.Error { e_id = id; kind; detail })

let add_quarantine t conn reason detail =
  Mutex.lock t.qlock;
  t.quarantine <- (conn.cid, reason, detail) :: t.quarantine;
  (match t.quarantine with
  | _ :: _ :: _ when List.length t.quarantine > 100 ->
      t.quarantine <- List.filteri (fun i _ -> i < 100) t.quarantine
  | _ -> ());
  Mutex.unlock t.qlock;
  Atomic.incr t.n_quar;
  Metrics.incr m_quarantined;
  log t "quarantine client=%d %s: %s" conn.cid reason detail

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

(* Load-shedding ladder, sharing the search's one degradation rung:
   past half the queue capacity new admissions run at shed level 1 (a
   reduced DP budget, {!Search.ladder_sched_states}); only a full queue
   rejects. *)
let shed_of_depth cfg depth = if depth >= cfg.queue_cap / 2 then 1 else 0

let reject t conn ?id kind detail =
  Atomic.incr t.rejected;
  Metrics.incr m_rejected;
  send_error t conn ?id kind detail

let admit t conn (task : task) =
  Metrics.incr m_requests;
  let id = task_id task in
  Mutex.lock t.qlock;
  let depth = Queue.length t.queue in
  let verdict =
    if t.draining then `Reject (P.Shutting_down, "daemon is draining")
    else if Hashtbl.mem t.ids id then
      `Reject (P.Duplicate, Printf.sprintf "request id %S is in flight" id)
    else if Atomic.get conn.inflight >= t.cfg.per_client_limit then
      `Reject
        ( P.Overloaded,
          Printf.sprintf "per-client in-flight limit (%d) reached"
            t.cfg.per_client_limit )
    else if depth >= t.cfg.queue_cap then
      `Reject (P.Overloaded, Printf.sprintf "queue full (%d)" t.cfg.queue_cap)
    else begin
      let shed = shed_of_depth t.cfg depth in
      Hashtbl.add t.ids id ();
      Atomic.incr conn.inflight;
      Queue.add
        { jconn = conn; jtask = task; t_admit = Unix.gettimeofday ();
          jshed = shed }
        t.queue;
      Metrics.set g_queue (float_of_int (Queue.length t.queue));
      Metrics.set g_shed (float_of_int shed);
      Condition.broadcast t.qcond;
      `Admitted
    end
  in
  Mutex.unlock t.qlock;
  match verdict with
  | `Admitted -> log t "admitted %s (%s)" id (task_model task)
  | `Reject (kind, detail) -> reject t conn ~id kind detail

(* ------------------------------------------------------------------ *)
(* Request execution (worker domains)                                  *)
(* ------------------------------------------------------------------ *)

let search_config t ~shed (req : P.request) =
  {
    Search.default_config with
    sched_states = Search.ladder_sched_states ~level:shed req.sched_states;
    max_iterations = req.max_iterations;
    sim_cache = Some t.sim_cache;
    jobs = 1;
  }

(* One terminal outcome per executed job.  [settle] mirrors the outcome
   into the counters and frees the request id BEFORE the terminal reply
   goes out, so a client that reacts to the reply (health probe,
   resubmission of the same id) observes consistent daemon state;
   [finish] releases the in-flight slot and wakes the IO loop AFTER the
   reply, because the IO loop may close the connection's fd as soon as
   the slot count reaches zero. *)
let settle t (job : job) outcome =
  Mutex.lock t.qlock;
  Hashtbl.remove t.ids (task_id job.jtask);
  if t.draining then Condition.broadcast t.qcond;
  Mutex.unlock t.qlock;
  Atomic.decr t.running;
  Metrics.set g_inflight (float_of_int (Atomic.get t.running));
  (match outcome with
  | `Served ->
      Atomic.incr t.served;
      Metrics.incr m_served
  | `Cancelled ->
      Atomic.incr t.cancelled;
      Metrics.incr m_cancelled
  | `Rejected ->
      Atomic.incr t.rejected;
      Metrics.incr m_rejected)

let finish t (job : job) =
  Atomic.decr job.jconn.inflight;
  wake t

let run_search t (job : job) (req : P.request) (workload : Zoo.workload)
    deadline_left =
  let conn = job.jconn in
  let alive () = Atomic.get conn.alive in
  let elapsed () = Unix.gettimeofday () -. job.t_admit in
  let graph = workload.build req.scale in
  (* Baseline simulation establishes the mode limit; its fault site
     ("simulator") is retried, and a persistent failure quarantines the
     request instead of the daemon. *)
  match
    Retry.run (fun () -> Simulator.run t.cache graph (Graph.topo_order graph))
  with
  | Error (f : Retry.failure) ->
      let detail =
        Printf.sprintf "quarantined after %d attempts: %s" f.attempts
          (Printexc.to_string f.exn)
      in
      add_quarantine t conn "request" detail;
      settle t job `Rejected;
      send_error t conn ~id:req.id P.Internal detail;
      finish t job
  | Ok base -> (
      let mode =
        match req.mode with
        | P.Memory overhead ->
            Search.Min_memory { lat_limit = base.latency *. (1.0 +. overhead) }
        | P.Latency ratio ->
            Search.Min_latency
              {
                mem_limit =
                  int_of_float (float_of_int base.peak_mem *. ratio);
              }
      in
      let path = ckpt_path t.cfg req.id in
      let resumed = Checkpoint.exists path in
      if resumed then Metrics.incr m_resumed;
      let budget = Option.value deadline_left ~default:3600.0 in
      let total = req.max_iterations in
      let step =
        if req.progress_every > 0 then req.progress_every
        else t.cfg.slice_iterations
      in
      let base_cfg = search_config t ~shed:job.jshed req in
      let cfg_for target =
        {
          base_cfg with
          Search.max_iterations = target;
          time_budget = budget;
          cancel = (fun () -> not (alive ()));
          checkpoint =
            Some
              {
                Search.ckpt_path = path;
                ckpt_every = t.cfg.ckpt_every;
                ckpt_resume = true;
              };
        }
      in
      let rec slices target =
        let r = Search.run ~config:(cfg_for target) t.cache mode graph in
        let done_ = r.Search.stats.iterations in
        if r.Search.interrupted && not (alive ()) then `Cancelled
        else if r.Search.interrupted then `Interrupted r
        else if done_ >= total then `Done r
        else if done_ >= target then begin
          if req.progress_every > 0 then
            send t conn
              (P.Progress
                 {
                   p_id = req.id;
                   p_iterations = done_;
                   p_peak = r.Search.best.peak_mem;
                   p_latency = r.Search.best.latency;
                   p_elapsed = elapsed ();
                 });
          if Atomic.get t.drain_flag then `Interrupted r
          else slices (min (done_ + step) total)
        end
        else `Budget r
      in
      let result ~interrupted ~deadline_hit (r : Search.result) =
        send t conn
          (P.Result
             {
               o_id = req.id;
               o_initial_peak = r.initial.peak_mem;
               o_peak = r.best.peak_mem;
               o_latency = r.best.latency;
               o_iterations = r.stats.iterations;
               o_interrupted = interrupted;
               o_resumed = resumed;
               o_deadline_hit = deadline_hit;
               o_quarantined = r.stats.n_quarantined;
             })
      in
      match slices (min step total) with
      | exception Checkpoint.Incompatible msg ->
          settle t job `Rejected;
          send_error t conn ~id:req.id P.Incompatible msg;
          finish t job
      | exception Search.Verification_failure msg ->
          add_quarantine t conn "verification" msg;
          settle t job `Rejected;
          send_error t conn ~id:req.id P.Internal
            ("verification failure: " ^ msg);
          finish t job
      | exception e ->
          let detail = Printexc.to_string e in
          add_quarantine t conn "request" detail;
          settle t job `Rejected;
          send_error t conn ~id:req.id P.Internal detail;
          finish t job
      | `Cancelled ->
          (* checkpoint kept for resume *)
          settle t job `Cancelled;
          finish t job
      | `Interrupted r ->
          (* drain: best-so-far out, checkpoint kept for the restart *)
          settle t job `Served;
          result ~interrupted:true ~deadline_hit:false r;
          finish t job
      | `Budget r ->
          let deadline_hit =
            match deadline_left with
            | Some b -> elapsed () >= b *. 0.9
            | None -> false
          in
          if deadline_hit then Metrics.incr m_deadline;
          (try Sys.remove path with Sys_error _ -> ());
          settle t job `Served;
          result ~interrupted:false ~deadline_hit r;
          finish t job
      | `Done r ->
          (try Sys.remove path with Sys_error _ -> ());
          settle t job `Served;
          result ~interrupted:false ~deadline_hit:false r;
          finish t job)

(* ------------------------------------------------------------------ *)
(* Frontier queries                                                     *)
(* ------------------------------------------------------------------ *)

(* Frontier builds always run the widest sweep — minimize memory with
   no latency bound — so one cached frontier answers every budget.
   The configuration deliberately ignores load shedding: shed knobs are
   part of the trajectory fingerprint, and a frontier built under shed
   would silently occupy a different cache key. *)
let frontier_mode = Search.Min_memory { lat_limit = infinity }

let frontier_config (f : P.frontier_request) =
  {
    Search.default_config with
    sched_states = f.f_sched_states;
    max_iterations = f.f_max_iterations;
  }

(* Workload, hardware, graph and cache key of a query; raises
   [Invalid_argument] on an unknown model or hardware profile. *)
let frontier_spec (f : P.frontier_request) =
  let workload = Zoo.find f.f_model in
  let hw = Hardware.find f.f_hw in
  let graph = workload.Zoo.build f.f_scale in
  let key = Frontier_build.key ~config:(frontier_config f) frontier_mode ~hw graph in
  (hw, graph, key)

let frontier_answer (f : P.frontier_request) ~cache_hit fr =
  let budget = Frontier_build.budget_of_ratio fr ~ratio:f.f_budget_ratio in
  match Frontier.query fr ~budget with
  | Some (p : Frontier.point) ->
      {
        P.fr_id = f.f_id;
        fr_cache_hit = cache_hit;
        fr_points = Frontier.size fr;
        fr_budget = budget;
        fr_feasible = true;
        fr_peak = p.peak;
        fr_latency = p.latency;
      }
  | None ->
      {
        P.fr_id = f.f_id;
        fr_cache_hit = cache_hit;
        fr_points = Frontier.size fr;
        fr_budget = budget;
        fr_feasible = false;
        fr_peak = 0;
        fr_latency = 0.0;
      }

(* Memo-then-disk lookup.  A disk hit is promoted into the memo so a
   daemon restarted over a warm cache directory pays the file read
   once. *)
let frontier_cached t key =
  Mutex.lock t.flock;
  let memo = Hashtbl.find_opt t.frontiers key in
  Mutex.unlock t.flock;
  match memo with
  | Some _ as hit -> hit
  | None -> (
      match Frontier_cache.load ~dir:t.cfg.ckpt_dir ~key with
      | Some fr ->
          Mutex.lock t.flock;
          Hashtbl.replace t.frontiers key fr;
          Mutex.unlock t.flock;
          Some fr
      | None -> None)

(* Cache-miss path, on a worker domain: run one harvesting search and
   persist the swept frontier.  Different queries may name different
   hardware, so the op-cost cache is private per build (sharing the
   daemon's default-hardware simulation cache across profiles would
   poison it). *)
let run_frontier t (job : job) (f : P.frontier_request) =
  let conn = job.jconn in
  match frontier_spec f with
  | exception Invalid_argument msg ->
      settle t job `Rejected;
      send_error t conn ~id:f.f_id P.Malformed msg;
      finish t job
  | hw, graph, key -> (
      match frontier_cached t key with
      | Some fr ->
          (* another worker (or a previous run) built it since the IO
             domain missed *)
          Metrics.incr m_frontier_hits;
          settle t job `Served;
          send t conn (P.Frontier_reply (frontier_answer f ~cache_hit:true fr));
          finish t job
      | None -> (
          let config =
            {
              (frontier_config f) with
              Search.cancel = (fun () -> not (Atomic.get conn.alive));
            }
          in
          let cache = Op_cost.create hw in
          match Frontier_build.build ~config cache frontier_mode graph with
          | exception e ->
              let detail = Printexc.to_string e in
              add_quarantine t conn "frontier" detail;
              settle t job `Rejected;
              send_error t conn ~id:f.f_id P.Internal detail;
              finish t job
          | fr, result when result.Search.interrupted ->
              (* partial sweep: answer the live client best-so-far but
                 never cache it — a cached frontier must be the full
                 sweep or later budgets silently get worse answers *)
              if Atomic.get conn.alive then begin
                settle t job `Served;
                send t conn
                  (P.Frontier_reply (frontier_answer f ~cache_hit:false fr));
                finish t job
              end
              else begin
                settle t job `Cancelled;
                finish t job
              end
          | fr, _result ->
              Frontier_cache.save ~dir:t.cfg.ckpt_dir ~key fr;
              Mutex.lock t.flock;
              Hashtbl.replace t.frontiers key fr;
              Mutex.unlock t.flock;
              Metrics.incr m_frontier_built;
              log t "frontier built for %s on %s (%d points)" f.f_model f.f_hw
                (Frontier.size fr);
              settle t job `Served;
              send t conn
                (P.Frontier_reply (frontier_answer f ~cache_hit:false fr));
              finish t job))

let execute t (job : job) =
  let conn = job.jconn in
  let elapsed () = Unix.gettimeofday () -. job.t_admit in
  if not (Atomic.get conn.alive) then begin
    settle t job `Cancelled;
    finish t job
  end
  else
    match job.jtask with
    | Frontier_task f ->
        Trace.with_span ~cat:"serve"
          ~args:[ ("id", f.f_id); ("model", f.f_model) ]
          "frontier"
        @@ fun () -> run_frontier t job f
    | Opt_task req -> (
        let deadline_left =
          Option.map (fun d -> d -. elapsed ()) req.deadline_s
        in
        match deadline_left with
        | Some left when left <= 0.0 ->
            Metrics.incr m_deadline;
            settle t job `Rejected;
            send_error t conn ~id:req.id P.Deadline
              "deadline expired before dispatch";
            finish t job
        | _ -> (
            match Zoo.find req.model with
            | exception Invalid_argument msg ->
                settle t job `Rejected;
                send_error t conn ~id:req.id P.Malformed msg;
                finish t job
            | workload ->
                Trace.with_span ~cat:"serve"
                  ~args:[ ("id", req.id); ("model", req.model) ]
                  "request"
                @@ fun () -> run_search t job req workload deadline_left))

let rec worker_loop t =
  Mutex.lock t.qlock;
  let runnable () =
    (not (Queue.is_empty t.queue)) && ((not t.paused) || t.draining)
  in
  while (not (runnable ())) && not (t.draining && Queue.is_empty t.queue) do
    Condition.wait t.qcond t.qlock
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.qlock (* draining: exit *)
  else begin
    let job = Queue.pop t.queue in
    (* claim the in-flight slot before releasing the lock, so drain and
       health snapshots never observe a popped-but-uncounted request;
       [settle] releases it before the terminal reply goes out *)
    Atomic.incr t.running;
    Metrics.set g_queue (float_of_int (Queue.length t.queue));
    Metrics.set g_inflight (float_of_int (Atomic.get t.running));
    Mutex.unlock t.qlock;
    (try execute t job
     with e ->
       (* belt and braces: [execute] replies on every known path, so
          this only fires on daemon bugs — reply and keep serving *)
       settle t job `Rejected;
       send_error t job.jconn ~id:(task_id job.jtask) P.Internal
         (Printexc.to_string e);
       finish t job);
    worker_loop t
  end

(* ------------------------------------------------------------------ *)
(* Command handling (IO domain)                                        *)
(* ------------------------------------------------------------------ *)

let health_snapshot t =
  Mutex.lock t.qlock;
  let depth = Queue.length t.queue in
  let status =
    if t.draining then "draining" else if t.paused then "paused" else "ok"
  in
  Mutex.unlock t.qlock;
  {
    P.status;
    queue_depth = depth;
    inflight = Atomic.get t.running;
    shed_level = shed_of_depth t.cfg depth;
    served = Atomic.get t.served;
    rejected = Atomic.get t.rejected;
    quarantined = Atomic.get t.n_quar;
    cache_hit_rate = Sim_cache.hit_rate t.sim_cache;
  }

let set_paused t paused =
  Mutex.lock t.qlock;
  t.paused <- paused;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qlock

(* Returns [true] when the line requested a drain. *)
let handle_line t conn line =
  match P.command_of_string line with
  | exception Json.Parse_error msg ->
      add_quarantine t conn "malformed" msg;
      send_error t conn P.Malformed msg;
      mark_dead t conn;
      false
  | exception P.Invalid msg ->
      add_quarantine t conn "malformed" msg;
      send_error t conn P.Malformed msg;
      false
  | P.Optimize req ->
      admit t conn (Opt_task req);
      false
  | P.Frontier f -> (
      (* cache hits are answered right here on the IO domain — a hit is
         one O(log n) lookup, so it never competes with searches for a
         worker slot or a queue position *)
      match frontier_spec f with
      | exception Invalid_argument msg ->
          reject t conn ~id:f.f_id P.Malformed msg;
          false
      | _, _, key -> (
          match frontier_cached t key with
          | Some fr ->
              Metrics.incr m_frontier_hits;
              Atomic.incr t.served;
              Metrics.incr m_served;
              send t conn
                (P.Frontier_reply (frontier_answer f ~cache_hit:true fr));
              false
          | None ->
              admit t conn (Frontier_task f);
              false))
  | P.Health ->
      send t conn (P.Health_reply (health_snapshot t));
      false
  | P.Metrics ->
      send t conn (P.Metrics_reply (Metrics.to_text ()));
      false
  | P.Pause ->
      set_paused t true;
      send t conn (P.Ack "pause");
      false
  | P.Resume ->
      set_paused t false;
      send t conn (P.Ack "resume");
      false
  | P.Shutdown ->
      send t conn (P.Ack "shutdown");
      true

(* Split the read buffer into complete lines; a buffer exceeding the
   request-line limit without a newline is an attack or a bug — reply,
   quarantine, drop the client. *)
let drain_lines t conn =
  let data = Buffer.contents conn.rbuf in
  Buffer.clear conn.rbuf;
  let n = String.length data in
  let drain = ref false in
  let rec go start =
    match String.index_from_opt data start '\n' with
    | Some nl ->
        let line = String.sub data start (nl - start) in
        if String.length line > 0 then
          if handle_line t conn line then drain := true;
        go (nl + 1)
    | None ->
        let rest = n - start in
        if rest > P.max_request_line then begin
          add_quarantine t conn "oversized"
            (Printf.sprintf "request line exceeds %d bytes" P.max_request_line);
          send_error t conn P.Oversized
            (Printf.sprintf "line longer than %d bytes" P.max_request_line);
          mark_dead t conn
        end
        else Buffer.add_substring conn.rbuf data start rest
  in
  go 0;
  !drain

(* One readable connection: a torn read (injected [sock_read] fault or
   a real socket error) quarantines and drops the client; EOF marks it
   dead so in-flight work cancels at the next expansion boundary. *)
let service_read t conn scratch =
  match
    (Fault.hit "sock_read";
     Unix.read conn.fd scratch 0 (Bytes.length scratch))
  with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  | exception e ->
      add_quarantine t conn "sock_read" (Printexc.to_string e);
      mark_dead t conn;
      false
  | 0 ->
      mark_dead t conn;
      false
  | n ->
      Buffer.add_subbytes conn.rbuf scratch 0 n;
      drain_lines t conn

(* ------------------------------------------------------------------ *)
(* Listener setup and the event loop                                   *)
(* ------------------------------------------------------------------ *)

let make_listener (addr : P.addr) =
  match addr with
  | P.Unix_sock path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      if Sys.file_exists path then (try Unix.unlink path with _ -> ());
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      (fd, Some path)
  | P.Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      (fd, None)

let run t =
  let cfg = t.cfg in
  mkdir_p cfg.ckpt_dir;
  let metrics_were_on = Metrics.enabled () in
  Metrics.set_enabled true;
  let prev_pipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let unregister = Interrupt.on_signal (fun _ -> stop t) in
  let listen_fd, sock_path = make_listener cfg.addr in
  let workers =
    Array.init cfg.workers (fun _ -> Domain.spawn (fun () -> worker_loop t))
  in
  let conns = ref [] in
  let next_cid = ref 0 in
  let scratch = Bytes.create 8192 in
  let drain_requested = ref false in
  let apply_drain () =
    if not !drain_requested then begin
      drain_requested := true;
      log t "draining";
      Mutex.lock t.qlock;
      t.draining <- true;
      Condition.broadcast t.qcond;
      Mutex.unlock t.qlock
    end
  in
  let accept_all () =
    let rec go () =
      match Unix.accept ~cloexec:true listen_fd with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception _ -> ()
      | fd, _ ->
          (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO cfg.write_timeout
           with _ -> ());
          incr next_cid;
          Metrics.incr m_conns;
          conns :=
            {
              cid = !next_cid;
              fd;
              rbuf = Buffer.create 256;
              wlock = Mutex.create ();
              alive = Atomic.make true;
              inflight = Atomic.make 0;
            }
            :: !conns;
          log t "client %d connected" !next_cid;
          go ()
    in
    go ()
  in
  let finished = ref false in
  while not !finished do
    if Atomic.get t.drain_flag then apply_drain ();
    (* reap connections nothing references anymore *)
    conns :=
      List.filter
        (fun c ->
          if (not (Atomic.get c.alive)) && Atomic.get c.inflight = 0 then begin
            (try Unix.close c.fd with _ -> ());
            false
          end
          else true)
        !conns;
    let live = List.filter (fun c -> Atomic.get c.alive) !conns in
    let rset =
      t.pipe_r
      :: (if !drain_requested then [] else [ listen_fd ])
      @ List.map (fun c -> c.fd) live
    in
    (match Unix.select rset [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        if List.mem t.pipe_r readable then begin
          try ignore (Unix.read t.pipe_r scratch 0 (Bytes.length scratch))
          with _ -> ()
        end;
        if List.mem listen_fd readable && not !drain_requested then
          accept_all ();
        List.iter
          (fun c ->
            if List.mem c.fd readable then
              if service_read t c scratch then Atomic.set t.drain_flag true)
          live);
    if !drain_requested then begin
      Mutex.lock t.qlock;
      let idle = Queue.is_empty t.queue && Atomic.get t.running = 0 in
      Mutex.unlock t.qlock;
      if idle then finished := true
    end
  done;
  Array.iter Domain.join workers;
  List.iter (fun c -> try Unix.close c.fd with _ -> ()) !conns;
  (try Unix.close listen_fd with _ -> ());
  (match sock_path with
  | Some p -> ( try Unix.unlink p with _ -> ())
  | None -> ());
  unregister ();
  (match prev_pipe with
  | Some b -> ( try Sys.set_signal Sys.sigpipe b with _ -> ())
  | None -> ());
  Metrics.set_enabled metrics_were_on;
  log t "drained, exiting"
