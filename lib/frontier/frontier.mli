(** Dominance-pruned memory–latency Pareto frontier.

    A frontier is the set of non-dominated [(peak bytes, latency)]
    points a search swept past, each carrying the schedule that achieved
    it.  Point [a] dominates [b] when [a.peak <= b.peak] and
    [a.latency <= b.latency] (and they differ); the structure keeps only
    non-dominated points, so one search answers every later memory-budget
    question — "what is the best latency under B bytes?" — with a single
    O(log n) lookup instead of a fresh search. *)

(** A frontier point. *)
type point = {
  peak : int;  (** peak memory, bytes *)
  latency : float;  (** seconds *)
  iteration : int;  (** search iteration that produced the state *)
  sched : int list;  (** node execution order *)
}

type counters = {
  harvested : int;  (** insert attempts *)
  pruned : int;  (** candidates rejected as dominated (or tie-losers) *)
  evicted : int;  (** resident points displaced by better candidates *)
  queries : int;  (** budget lookups *)
  hits : int;  (** lookups that found a feasible point *)
}

type t

val create : unit -> t

(** Number of resident (non-dominated) points. *)
val size : t -> int

val counters : t -> counters

(** Resident points, peak ascending (hence latency descending). *)
val points : t -> point list

(** [(min, max)] resident peak, or [None] when empty. *)
val peak_range : t -> (int * int) option

(** Offer a point.  Returns [true] when it entered the frontier (any
    points it weakly dominates are evicted), [false] when an existing
    point weakly dominates it.  Exact [(peak, latency)] ties keep the
    point with the smaller [(iteration, sched)] — an order-independent
    rule, so the resident set depends only on the multiset of points
    offered, never on their order. *)
val insert :
  t -> peak:int -> latency:float -> iteration:int -> int list -> bool

val insert_point : t -> point -> bool

(** Best (lowest-latency) point with [peak <= budget], or [None] when no
    resident point fits.  O(log n). *)
val query : t -> budget:int -> point option

(** Fresh frontier holding the non-dominated union of both inputs'
    points (counters start at the inserts the merge itself performed).
    Commutative and idempotent up to resident points. *)
val merge : t -> t -> t

(** Raised by {!of_json} on a malformed or wrong-version document. *)
exception Invalid of string

(** Round-trips exactly: floats print shortest-exact, counters and
    points are preserved verbatim. *)
val to_json : t -> Magis_obs.Json.t

val of_json : Magis_obs.Json.t -> t

val pp : Format.formatter -> t -> unit
