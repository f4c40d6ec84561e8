(** Dominance-pruned memory–latency Pareto frontier.

    A frontier is the set of non-dominated [(peak bytes, latency)]
    points a search swept past, each carrying the schedule that achieved
    it.  Point [a] dominates [b] when [a.peak <= b.peak] and
    [a.latency <= b.latency] (and they differ); the structure keeps only
    non-dominated points, so one search answers every later memory-budget
    question — "what is the best latency under B bytes?" — with a single
    O(log n) lookup instead of a fresh search.

    A frontier also records its sweep's baseline: the unoptimized
    graph's [(peak, latency)] ({!Magis_opt.Search.baseline}), the
    reference of every ratio budget.  It is plain data — a point array,
    the baseline and five counters, no closure — so {!Frontier_cache}
    persists the value itself. *)

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

(** An empty frontier of a sweep whose unoptimized graph has
    [(peak, latency)] = [baseline]. *)
val create : baseline:int * float -> t

(** The [baseline] the frontier was created with. *)
val baseline : t -> int * float

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

(** Best (lowest-latency) point with [peak <= budget], or [None] when no
    resident point fits.  O(log n). *)
val query : t -> budget:int -> point option
