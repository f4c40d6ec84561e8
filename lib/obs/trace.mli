(** Lightweight span/instant tracing with a Chrome [trace_event]
    exporter.

    Instrumented code calls {!with_span} around units of work and
    {!instant} at point events; both are near-free while the tracer is
    disabled (the default): one atomic load, one branch, no allocation.
    When enabled, events carry a monotonized timestamp and the
    recording domain's id, and land in a fixed-capacity ring buffer
    shared by all domains — overflow overwrites the oldest events (see
    {!dropped}), never blocks, and never grows memory.

    {!to_chrome} renders the buffer as a Chrome [trace_event] JSON
    document loadable in [chrome://tracing] or Perfetto; spans become
    complete events on one lane per domain, so each of a daemon's
    request workers shows on a lane of its own.

    The tracer is a process-wide singleton: libraries instrument
    unconditionally, and whoever owns [main] (CLI, bench, a test)
    decides whether to {!enable} it. *)

(** A completed span of [float] seconds, or a point event. *)
type kind = Span of float | Instant

type event = {
  name : string;
  cat : string;  (** coarse grouping: ["search"], ["cost"], ["resilience"], … *)
  ts : float;  (** absolute monotonized seconds (see {!now}) *)
  tid : int;  (** domain id of the recording domain *)
  kind : kind;
  args : (string * string) list;
}

(** Monotonized wall clock, in seconds: never decreases, across all
    domains, even when the system clock steps backwards.  Usable
    independently of whether tracing is enabled. *)
val now : unit -> float

(** Start recording into a fresh ring buffer of [capacity] events
    (default 65536).  Timestamps exported by {!to_chrome} are relative
    to this call. *)
val enable : ?capacity:int -> unit -> unit

(** Stop recording; the buffer stays readable ({!events}, {!to_chrome})
    until the next {!enable} or {!clear}. *)
val disable : unit -> unit

val enabled : unit -> bool

(** Disable and drop the buffer. *)
val clear : unit -> unit

(** [with_span name f] runs [f] and, when enabled, records a span
    covering its execution — also when [f] raises.  Disabled cost: one
    atomic load. *)
val with_span :
  ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Record a point event (no-op while disabled; allocation-free on that
    path). *)
val instant : ?cat:string -> ?args:(string * string) list -> string -> unit

(** Recorded events, oldest first. *)
val events : unit -> event list

(** Events overwritten by ring-buffer overflow since {!enable}. *)
val dropped : unit -> int

(** The buffer as Chrome [trace_event] JSON objects (no enclosing
    document), for embedding alongside other lanes (see
    {!Timeline.chrome}). *)
val chrome_events : unit -> Json.t list

(** The buffer as a complete Chrome trace JSON document. *)
val to_chrome : unit -> string
