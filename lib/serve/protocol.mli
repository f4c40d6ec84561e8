(** Wire protocol of the optimization service: line-delimited JSON.

    One request or reply per line, encoded with {!Magis_obs.Json}; the
    decoder applies the parser's depth and length limits so a hostile
    client cannot make the daemon recurse or buffer without bound.  The
    grammar is documented in DESIGN.md §13; this module is the single
    source of truth for both the server and every client (CLI, load
    generator, chaos harness, tests).

    Commands travel client → server, replies server → client.  A
    connection may carry any number of commands; each [Optimize] is
    answered by zero or more [Progress] lines followed by exactly one
    terminal line ([Result] or [Error]), matched by request id. *)

(** Where the daemon listens. *)
type addr =
  | Unix_sock of string  (** filesystem socket path *)
  | Tcp of int  (** 127.0.0.1 port *)

(** Optimization objective, relative to the unoptimized baseline. *)
type mode =
  | Memory of float
      (** minimize peak memory; latency overhead bound, at least 0 *)
  | Latency of float
      (** minimize latency; peak-memory ratio bound, in (0, 1] *)

type request = {
  id : string;  (** client-chosen; duplicate in-flight ids are rejected *)
  model : string;  (** {!Magis_models.Zoo} workload name *)
  scale : Magis_models.Zoo.scale;
  mode : mode;
  deadline_s : float option;
      (** total seconds from admission; maps onto the search's
          [time_budget], so an expiring request returns best-so-far *)
  max_iterations : int;
  progress_every : int;  (** iterations between progress events; 0 = none *)
  sched_states : int;
      (** DP budget, in [0, 20000] (a decoder rejects any other value
          as malformed); may be shed under load *)
}

(** A frontier query: "best latency for [model] on [hw] under
    [budget_ratio] × the baseline peak".  Answered from the daemon's
    frontier cache when the (model, hardware, search configuration)
    combination was built before — a cache hit costs one O(log n)
    lookup on the IO domain and never enters the admission queue. *)
type frontier_request = {
  f_id : string;  (** same id discipline as {!request.id} *)
  f_model : string;
  f_scale : Magis_models.Zoo.scale;
  f_hw : string;  (** {!Magis_cost.Hardware} profile name *)
  f_budget_ratio : float;  (** memory budget in (0, 1] of baseline peak *)
  f_max_iterations : int;  (** search knobs for the cache-miss build; *)
  f_sched_states : int;
      (** both are part of the cache key; [f_sched_states] is bounded
          as {!request.sched_states} is *)
}

type command =
  | Optimize of request
  | Frontier of frontier_request
  | Health
  | Metrics
  | Pause  (** stop dispatching queued requests (admin; deterministic tests) *)
  | Resume
  | Shutdown  (** drain the queue and exit, like SIGTERM *)

type error_kind =
  | Malformed  (** unparseable or ill-typed request *)
  | Oversized  (** request line longer than the server limit *)
  | Overloaded  (** queue full or per-client in-flight limit hit *)
  | Deadline  (** deadline expired before the request was dispatched *)
  | Duplicate  (** request id already in flight *)
  | Incompatible  (** checkpoint under this id belongs to another spec *)
  | Shutting_down  (** daemon is draining *)
  | Internal  (** quarantined failure or optimizer bug *)

type progress = {
  p_id : string;
  p_iterations : int;
  p_peak : int;  (** best-so-far peak memory, bytes *)
  p_latency : float;  (** best-so-far simulated latency, seconds *)
  p_elapsed : float;  (** seconds since the request was admitted *)
}

type outcome = {
  o_id : string;
  o_initial_peak : int;
  o_peak : int;
  o_latency : float;
  o_iterations : int;
  o_interrupted : bool;  (** cut short by SIGTERM / drain *)
  o_resumed : bool;  (** continued from a checkpoint of the same id *)
  o_deadline_hit : bool;  (** budget expired; this is best-so-far *)
  o_limit_met : bool;
      (** the best meets the request's limit ({!Magis_opt.Search.limit_met});
          false when the search found no state within it and this is
          the nearest miss *)
  o_quarantined : int;  (** candidates quarantined during the search *)
}

type health = {
  status : string;  (** ["ok"] | ["paused"] | ["draining"] *)
  queue_depth : int;
  inflight : int;
  shed_level : int;  (** current load-shedding rung (0 = full quality) *)
  served : int;
  rejected : int;  (** overloaded + deadline + duplicate + shutdown *)
  quarantined : int;  (** connection-layer quarantine records *)
  cache_hit_rate : float;  (** shared cross-request simulation cache *)
}

type frontier_answer = {
  fr_id : string;
  fr_cache_hit : bool;  (** answered without running a search *)
  fr_points : int;  (** resident frontier points *)
  fr_budget : int;  (** the ratio resolved to bytes *)
  fr_feasible : bool;  (** some point fits the budget *)
  fr_peak : int;  (** chosen point's peak bytes (0 when infeasible) *)
  fr_latency : float;  (** chosen point's latency (0 when infeasible) *)
}

type reply =
  | Ack of string  (** admin command acknowledged; carries the op name *)
  | Progress of progress
  | Result of outcome
  | Frontier_reply of frontier_answer
  | Error of { e_id : string option; kind : error_kind; detail : string }
  | Health_reply of health
  | Metrics_reply of string  (** Prometheus text exposition *)

(** Raised by the decoders on well-formed JSON that is not a valid
    message (unknown op, missing field, wrong type). *)
exception Invalid of string

(** Longest request line the server accepts (bytes, newline included). *)
val max_request_line : int

(** Longest reply line a client accepts — larger than the request limit
    because a metrics exposition is a single line. *)
val max_reply_line : int

(** Request with every optional knob at its default; [id] and [model]
    are the only mandatory choices. *)
val request : id:string -> model:string -> request

(** Frontier query with every optional knob at its default (rtx3090
    hardware, 0.8 budget ratio). *)
val frontier_request : id:string -> model:string -> frontier_request

val error_kind_name : error_kind -> string

(** {1 Codec}.  [to_string] never emits a newline; the framing layer
    appends it.  Decoders parse with the hardened limits and raise
    {!Magis_obs.Json.Parse_error} on syntax errors or {!Invalid} on
    schema errors. *)

val command_to_string : command -> string
val command_of_string : string -> command
val reply_to_string : reply -> string
val reply_of_string : string -> reply
