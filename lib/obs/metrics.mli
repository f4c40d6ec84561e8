(** Process-wide metrics: counters, gauges, and fixed-bucket
    histograms.

    Metrics are registered by name in a global registry — the same name
    always returns the same metric, so call sites can look up their
    instruments lazily without threading handles through APIs.
    Registering one name as two different kinds raises
    [Invalid_argument].

    Recording is gated on a single process-wide flag ({!set_enabled},
    default [false]): while disabled, {!incr}/{!add}/{!set}/{!observe}
    cost one atomic load and a branch.  While enabled, counters spread
    their increments over per-domain atomic cells so concurrent domains
    (a daemon's request workers) do not contend; values are summed at
    read time.

    Snapshots ({!snapshot}, {!to_text}, {!to_json}) read a consistent
    list of registered metrics but each value individually — metrics
    recorded concurrently with a snapshot may or may not be included,
    which is the usual (and sufficient) monitoring contract. *)

type counter
type gauge
type histogram

(** Enable or disable all recording (default: disabled). *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** Get or create the counter registered under this name. *)
val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit

(** Current value (sum over stripes); reads even while disabled. *)
val counter_value : counter -> int

(** Get or create the gauge registered under this name. *)
val gauge : string -> gauge

(** Set the gauge (last write wins across domains). *)
val set : gauge -> float -> unit

val gauge_value : gauge -> float

(** Get or create a histogram with the given strictly-increasing upper
    bucket edges (default: an exponential seconds ladder from 1 µs to
    10 s).  Bucket [i] counts
    observations in [(edges.(i-1), edges.(i)]]; an implicit final
    bucket counts overflow above the last edge.  Re-registering an
    existing histogram with different edges raises. *)
val histogram : ?buckets:float array -> string -> histogram

val observe : histogram -> float -> unit

(** Per-bucket counts: one cell per edge plus the final overflow cell. *)
val histogram_counts : histogram -> int array

val histogram_sum : histogram -> float

type histogram_snapshot = {
  edges : float array;
  counts : int array;  (** one cell per edge, plus a final overflow cell *)
  count : int;  (** total observations *)
  sum : float;
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;
  histograms : (string * histogram_snapshot) list;
}

val snapshot : unit -> snapshot

(** Snapshot as a JSON value
    [{"counters":{...},"gauges":{...},"histograms":{...}}]. *)
val json : unit -> Json.t

(** {!json} rendered to a string. *)
val to_json : unit -> string

(** Prometheus-flavoured plain-text rendering, one [name value] line
    per metric (histograms expand to [name{le=EDGE} count] lines plus
    [_count]/[_sum]). *)
val to_text : unit -> string

(** Zero every registered metric (the registry itself is kept). *)
val reset : unit -> unit
