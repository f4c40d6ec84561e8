(** The optimization daemon: accept loop, admission control, worker
    dispatch, crash recovery, drain.

    One IO domain runs a [select] event loop over the listening socket,
    a signal self-pipe and every client connection; [workers] domains
    pop admitted requests from a bounded queue and run the search
    slice-by-slice (checkpoint-resumed), streaming progress and the
    final result back over the client's connection.  The robustness
    contract, the request lifecycle state machine and the load-shedding
    ladder are specified in DESIGN.md §13.

    Robustness summary:
    - a malformed line, oversized line, torn read/write or quarantined
      request produces a structured error reply and a quarantine
      record; no client behaviour crashes the daemon;
    - the request queue is bounded; beyond it (or beyond the per-client
      in-flight limit) requests are rejected [overloaded], and queued
      depth degrades admitted quality (a reduced [sched_states])
      before anything is rejected;
    - deadlines map onto the search's [time_budget], so expiry returns
      best-so-far, flagged [deadline_hit];
    - client disconnect cancels the in-flight search at the next
      expansion boundary via the [cancel] hook;
    - every in-flight request checkpoints under
      [ckpt_dir/req-<id>.ckpt]; a restarted daemon resumes a
      re-submitted id bit-identically (same spec) or answers
      [incompatible] (changed spec);
    - SIGTERM (or {!stop}, or a [shutdown] command) drains: no new
      admissions, queued and in-flight requests finish (in-flight
      searches observe the signal and return best-so-far), then the
      daemon exits. *)

type config = {
  addr : Protocol.addr;
  workers : int;  (** request-executor domains *)
  queue_cap : int;  (** bounded admission queue *)
  per_client_limit : int;  (** max queued+running requests per connection *)
  ckpt_dir : string;  (** created if missing; one file per request id *)
  ckpt_every : float;  (** seconds between periodic snapshots *)
  slice_iterations : int;
      (** iteration granularity of progress/cancellation when a request
          does not set [progress_every] *)
  write_timeout : float;
      (** [SO_SNDTIMEO] on client sockets: a slow-loris reader is
          declared dead after this many seconds of a blocked write *)
  verbose : bool;  (** log lifecycle events to stderr *)
}

val default_config : config

type t

val create : config -> t

(** Run the daemon until drained.  Blocking: spawns the worker domains,
    installs the shared signal handler ({!Magis_resilience.Interrupt}),
    ignores SIGPIPE, and returns only after a SIGTERM/SIGINT, {!stop}
    or [shutdown] command has drained the queue.  The Unix socket file
    is unlinked on exit. *)
val run : t -> unit

(** Initiate drain from another domain (or a signal callback); safe to
    call repeatedly.  {!run} returns once the queue and in-flight
    requests finish. *)
val stop : t -> unit

(** The search configuration the daemon would use for [req] admitted at
    shed level [shed] — exposed so tests and benches can run the exact
    same search out-of-process and compare results bit-for-bit. *)
val search_config :
  t -> shed:int -> Protocol.request -> Magis_opt.Search.config

(** Checkpoint path the daemon uses for a request id. *)
val ckpt_path : config -> string -> string
