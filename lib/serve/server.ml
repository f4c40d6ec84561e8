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

    Signals: the {!Magis_resilience.Interrupt} callback only calls
    {!stop}, which flips an atomic and writes one byte to the self-pipe
    (both safe inside a signal handler); the IO loop performs the
    actual drain transition under the queue lock in normal context.

    Each optimize runs as exactly one search, through
    {!Search.optimize_memory} or {!Search.optimize_latency}: the search
    simulates the request's baseline on its own index of the graph and
    sets the limit from it, so the daemon holds no mode arithmetic, and
    a baseline whose fault site keeps failing ends the request as an
    [Internal] reply with a [request] quarantine.  Its per-pop poll
    streams progress and stops the search when the client is gone or
    the daemon drains — SIGTERM, {!stop} and [shutdown] all set the one
    drain flag it reads, so a drained search, in flight or still
    queued, returns best-so-far at its next pop.  The search writes
    periodic snapshots under the request id; a cancelled or drained
    request also saves the state its search ended in ({!Search.save}),
    and a finished one keeps no file.  The trajectory fingerprint
    excludes iteration and time budgets, so a re-submitted id resumes
    bit-identically after a cancel, a drain or a crash.  Every executed
    job ends in one {!outcome}, applied in one place ([worker_loop]). *)

module Json = Magis_obs.Json
module Trace = Magis_obs.Trace
module Metrics = Magis_obs.Metrics
module Fault = Magis_resilience.Fault
module Checkpoint = Magis_resilience.Checkpoint
module Interrupt = Magis_resilience.Interrupt
module Hardware = Magis_cost.Hardware
module Op_cost = Magis_cost.Op_cost
module Sim_cache = Magis_cost.Sim_cache
module Search = Magis_opt.Search
module Mstate = Magis_opt.Mstate
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
    write_timeout = 5.0;
    verbose = false;
  }

(* request-level counters in the shared registry *)
let m_conns = Metrics.counter "serve.connections"
let m_requests = Metrics.counter "serve.requests"
let m_deadline = Metrics.counter "serve.deadline"
let m_resumed = Metrics.counter "serve.resumed"
let m_frontier_hits = Metrics.counter "serve.frontier_hits"
let m_frontier_built = Metrics.counter "serve.frontier_built"
let g_queue = Metrics.gauge "serve.queue_depth"
let g_inflight = Metrics.gauge "serve.inflight"
let g_shed = Metrics.gauge "serve.shed_level"

(* A daemon counter: its own atomic (authoritative for health replies —
   the registry can be reset by a metrics scrape consumer) and its
   [serve.*] metric, always bumped together by {!bump}. *)
type tally = { n : int Atomic.t; metric : Metrics.counter }

let tally name = { n = Atomic.make 0; metric = Metrics.counter name }

let bump c =
  Atomic.incr c.n;
  Metrics.incr c.metric

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
  cost : Op_cost.t;
  sim_cache : Sim_cache.t;
  flock : Mutex.t;
  frontiers : (int64, Magis_frontier.Frontier.t) Hashtbl.t;
      (** in-memory frontier memo over the on-disk cache; [flock] *)
  ids : (string, unit) Hashtbl.t;  (** in-flight request ids; [qlock] *)
  served : tally;
  rejected : tally;
  quarantined : tally;
  cancelled : tally;
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
    cost = Op_cost.create Hardware.default;
    sim_cache = Sim_cache.create ();
    flock = Mutex.create ();
    frontiers = Hashtbl.create 16;
    ids = Hashtbl.create 64;
    served = tally "serve.served";
    rejected = tally "serve.rejected";
    quarantined = tally "serve.quarantined";
    cancelled = tally "serve.cancelled";
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
   their poll; the IO loop closes the fd once nothing is
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

(* A quarantine record: the counter and one log line. *)
let add_quarantine t conn reason detail =
  bump t.quarantined;
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
  bump t.rejected;
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
  }

(* What one executed job comes to: its accounting status, the terminal
   reply (none when the client is gone) and an optional quarantine
   record [(reason, detail)].  {!worker_loop} applies it. *)
type outcome = {
  status : [ `Served | `Cancelled | `Rejected ];
  reply : P.reply option;
  quarantine : (string * string) option;
}

let served reply = { status = `Served; reply = Some reply; quarantine = None }
let cancelled = { status = `Cancelled; reply = None; quarantine = None }

let rejected ?quarantine id kind detail =
  {
    status = `Rejected;
    reply = Some (P.Error { e_id = Some id; kind; detail });
    quarantine;
  }

(* [settle] mirrors the outcome into the counters and frees the request
   id BEFORE the terminal reply goes out, so a client that reacts to the
   reply (health probe, resubmission of the same id) observes
   consistent daemon state; [finish] releases the in-flight slot and
   wakes the IO loop AFTER the reply, because the IO loop may close the
   connection's fd as soon as the slot count reaches zero. *)
let settle t (job : job) status =
  Mutex.lock t.qlock;
  Hashtbl.remove t.ids (task_id job.jtask);
  if t.draining then Condition.broadcast t.qcond;
  Mutex.unlock t.qlock;
  Atomic.decr t.running;
  Metrics.set g_inflight (float_of_int (Atomic.get t.running));
  bump
    (match status with
    | `Served -> t.served
    | `Cancelled -> t.cancelled
    | `Rejected -> t.rejected)

let finish t (job : job) =
  Atomic.decr job.jconn.inflight;
  wake t

let run_search t (job : job) (req : P.request) (workload : Zoo.workload)
    deadline_left =
  let conn = job.jconn in
  let elapsed () = Unix.gettimeofday () -. job.t_admit in
  let graph = workload.build req.scale in
  let path = ckpt_path t.cfg req.id in
  (* progress at every positive multiple of [progress_every] (the
     search never polls at [max_iterations]); stop when the client
     is gone or the daemon drains *)
  let poll ~iteration ~(best : Mstate.t) =
    if
      req.progress_every > 0 && iteration > 0
      && iteration mod req.progress_every = 0
    then
      send t conn
        (P.Progress
           {
             p_id = req.id;
             p_iterations = iteration;
             p_peak = best.peak_mem;
             p_latency = best.latency;
             p_elapsed = elapsed ();
           });
    if Atomic.get conn.alive && not (Atomic.get t.drain_flag) then
      `Continue
    else `Stop
  in
  let config =
    {
      (search_config t ~shed:job.jshed req) with
      time_budget = Option.value deadline_left ~default:3600.0;
      poll;
      checkpoint =
        Some
          {
            Search.ckpt_path = path;
            ckpt_every = t.cfg.ckpt_every;
            ckpt_resume = true;
          };
    }
  in
  (* an interrupted search (cancelled or drained) saves the state
     it ended in for the comeback, inside the guard below *)
  let search () =
    let r =
      match req.mode with
      | P.Memory overhead ->
          Search.optimize_memory ~config t.cost ~overhead graph
      | P.Latency mem_ratio ->
          Search.optimize_latency ~config t.cost ~mem_ratio graph
    in
    if r.resumed then Metrics.incr m_resumed;
    if r.interrupted then Search.save r else r
  in
  match search () with
  | exception Checkpoint.Incompatible msg ->
      rejected req.id P.Incompatible msg
  | exception Search.Verification_failure msg ->
      rejected ~quarantine:("verification", msg) req.id P.Internal
        ("verification failure: " ^ msg)
  | exception e ->
      let detail = Printexc.to_string e in
      rejected ~quarantine:("request", detail) req.id P.Internal detail
  | r when r.interrupted && not (Atomic.get conn.alive) ->
      cancelled (* end state saved for the comeback *)
  | r ->
      (* a finished search wrote no end state; it removes any
         periodic snapshot.  The deadline is the search's time
         budget, so the search's record says whether it ended the
         run (a resumed snapshot, always an interrupted run's, holds
         no such record) *)
      let deadline_hit = Search.budget_ended r.stats in
      if deadline_hit then Metrics.incr m_deadline;
      if not r.interrupted then (
        try Sys.remove path with Sys_error _ -> ());
      served
        (P.Result
           {
             o_id = req.id;
             o_initial_peak = r.initial.peak_mem;
             o_peak = r.best.peak_mem;
             o_latency = r.best.latency;
             o_iterations = r.stats.iterations;
             o_interrupted = r.interrupted;
             o_resumed = r.resumed;
             o_deadline_hit = deadline_hit;
             o_limit_met = Search.limit_met r;
             o_quarantined = r.stats.n_quarantined;
           })

(* ------------------------------------------------------------------ *)
(* Frontier queries                                                     *)
(* ------------------------------------------------------------------ *)

(* Frontier builds run [Frontier_build.sweep_mode].  The configuration
   deliberately ignores load shedding: shed knobs are part of the
   trajectory fingerprint, and a frontier built under shed would
   silently occupy a different cache key. *)
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
  let key =
    Frontier_build.key ~config:(frontier_config f) Frontier_build.sweep_mode
      ~hw graph
  in
  (hw, graph, key)

let frontier_answer (f : P.frontier_request) ~cache_hit fr =
  let budget = Frontier_build.budget_of_ratio fr ~ratio:f.f_budget_ratio in
  let p = Frontier.query fr ~budget in
  {
    P.fr_id = f.f_id;
    fr_cache_hit = cache_hit;
    fr_points = Frontier.size fr;
    fr_budget = budget;
    fr_feasible = Option.is_some p;
    fr_peak = Option.fold p ~none:0 ~some:(fun (p : Frontier.point) -> p.peak);
    fr_latency =
      Option.fold p ~none:0.0 ~some:(fun (p : Frontier.point) -> p.latency);
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
   persist the swept frontier when [Frontier_build.cacheable].
   Different queries may name different hardware, so each build costs
   operators on its own profile.  A build runs with no simulation
   cache.  The daemon's could hold its entries, since [Sim_cache.key]
   digests the hardware fingerprint; sharing it is a change to measure
   on its own. *)
let run_frontier t conn (f : P.frontier_request) =
  let answer ~cache_hit fr =
    served (P.Frontier_reply (frontier_answer f ~cache_hit fr))
  in
  match frontier_spec f with
  | exception Invalid_argument msg -> rejected f.f_id P.Malformed msg
  | hw, graph, key -> (
      match frontier_cached t key with
      | Some fr ->
          (* another worker (or a previous run) built it since the IO
             domain missed *)
          Metrics.incr m_frontier_hits;
          answer ~cache_hit:true fr
      | None -> (
          let config =
            {
              (frontier_config f) with
              Search.poll =
                (fun ~iteration:_ ~best:_ ->
                  if Atomic.get conn.alive then `Continue else `Stop);
            }
          in
          let cost = Op_cost.create hw in
          match
            Frontier_build.build ~config cost Frontier_build.sweep_mode graph
          with
          | exception e ->
              let detail = Printexc.to_string e in
              rejected ~quarantine:("frontier", detail) f.f_id P.Internal
                detail
          | fr, result when not (Frontier_build.cacheable result) ->
              (* partial sweep: answer the live client best-so-far but
                 never cache it *)
              if Atomic.get conn.alive then answer ~cache_hit:false fr
              else cancelled
          | fr, _result ->
              Frontier_cache.save ~dir:t.cfg.ckpt_dir ~key fr;
              Mutex.lock t.flock;
              Hashtbl.replace t.frontiers key fr;
              Mutex.unlock t.flock;
              Metrics.incr m_frontier_built;
              log t "frontier built for %s on %s (%d points)" f.f_model f.f_hw
                (Frontier.size fr);
              answer ~cache_hit:false fr))

let execute t (job : job) =
  let elapsed () = Unix.gettimeofday () -. job.t_admit in
  if not (Atomic.get job.jconn.alive) then cancelled
  else
    match job.jtask with
    | Frontier_task f ->
        Trace.with_span ~cat:"serve"
          ~args:[ ("id", f.f_id); ("model", f.f_model) ]
          "frontier"
        @@ fun () -> run_frontier t job.jconn f
    | Opt_task req -> (
        let deadline_left =
          Option.map (fun d -> d -. elapsed ()) req.deadline_s
        in
        match deadline_left with
        | Some left when left <= 0.0 ->
            Metrics.incr m_deadline;
            rejected req.id P.Deadline "deadline expired before dispatch"
        | _ -> (
            match Zoo.find req.model with
            | exception Invalid_argument msg -> rejected req.id P.Malformed msg
            | workload ->
                Trace.with_span ~cat:"serve"
                  ~args:[ ("id", req.id); ("model", req.model) ]
                  "request"
                @@ fun () -> run_search t job req workload deadline_left))

(* The one place a job's outcome is applied, in the order of DESIGN.md
   §13.2: quarantine record, [settle], terminal reply, [finish]. *)
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
    let o =
      try execute t job
      with e ->
        (* belt and braces: [execute] returns an outcome on every known
           path, so this only fires on daemon bugs — reply and keep
           serving *)
        rejected (task_id job.jtask) P.Internal (Printexc.to_string e)
    in
    Option.iter
      (fun (reason, detail) -> add_quarantine t job.jconn reason detail)
      o.quarantine;
    settle t job o.status;
    Option.iter (send t job.jconn) o.reply;
    finish t job;
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
    served = Atomic.get t.served.n;
    rejected = Atomic.get t.rejected.n;
    quarantined = Atomic.get t.quarantined.n;
    cache_hit_rate = Sim_cache.hit_rate t.sim_cache;
  }

let set_paused t paused =
  Mutex.lock t.qlock;
  t.paused <- paused;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qlock

let handle_line t conn line =
  match P.command_of_string line with
  | exception Json.Parse_error msg ->
      add_quarantine t conn "malformed" msg;
      send_error t conn P.Malformed msg;
      mark_dead t conn
  | exception P.Invalid msg ->
      add_quarantine t conn "malformed" msg;
      send_error t conn P.Malformed msg
  | P.Optimize req -> admit t conn (Opt_task req)
  | P.Frontier f -> (
      (* cache hits are answered right here on the IO domain — a hit is
         one O(log n) lookup, so it never competes with searches for a
         worker slot or a queue position *)
      match frontier_spec f with
      | exception Invalid_argument msg ->
          reject t conn ~id:f.f_id P.Malformed msg
      | _, _, key -> (
          match frontier_cached t key with
          | Some fr ->
              Metrics.incr m_frontier_hits;
              bump t.served;
              send t conn
                (P.Frontier_reply (frontier_answer f ~cache_hit:true fr))
          | None -> admit t conn (Frontier_task f)))
  | P.Health -> send t conn (P.Health_reply (health_snapshot t))
  | P.Metrics -> send t conn (P.Metrics_reply (Metrics.to_text ()))
  | P.Pause ->
      set_paused t true;
      send t conn (P.Ack "pause")
  | P.Resume ->
      set_paused t false;
      send t conn (P.Ack "resume")
  | P.Shutdown ->
      send t conn (P.Ack "shutdown");
      stop t

(* Split the read buffer into complete lines; a buffer exceeding the
   request-line limit without a newline is an attack or a bug — reply,
   quarantine, drop the client. *)
let drain_lines t conn =
  let data = Buffer.contents conn.rbuf in
  Buffer.clear conn.rbuf;
  let n = String.length data in
  let rec go start =
    match String.index_from_opt data start '\n' with
    | Some nl ->
        let line = String.sub data start (nl - start) in
        if String.length line > 0 then handle_line t conn line;
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
  go 0

(* One readable connection: a torn read (injected [sock_read] fault or
   a real socket error) quarantines and drops the client; EOF marks it
   dead so in-flight work cancels at its search's next pop. *)
let service_read t conn scratch =
  match
    (Fault.hit "sock_read";
     Unix.read conn.fd scratch 0 (Bytes.length scratch))
  with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception e ->
      add_quarantine t conn "sock_read" (Printexc.to_string e);
      mark_dead t conn
  | 0 -> mark_dead t conn
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
  Checkpoint.mkdir_p cfg.ckpt_dir;
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
          (fun c -> if List.mem c.fd readable then service_read t c scratch)
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
