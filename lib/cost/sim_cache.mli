(** Simulation cache: memoizes the (reschedule → simulate) evaluation of
    an M-state so searches over the same workload — a daemon's requests,
    ablation sweeps, budget and limit sweeps — skip both phases on
    states they have already evaluated.

    The key digests exactly what the evaluation reads: the state's
    structural identity (WL hash of the graph ⊕ F-Tree fingerprint), the
    parent schedule and mutated-node set driving the incremental
    reschedule, the effective DP state budget and the hardware
    fingerprint.  The search mode and its limit are not part of it: they
    order the search's queue and gate admission, but no evaluation reads
    them, so searches in either mode and at any limit share entries.
    All inputs being digested, a hit returns bit-identical results to a
    recomputation; searches sharing a cache stay deterministic.

    A cache pays only when searches share it: a search's dedup already
    skips every state whose hash, a part of every key, it has seen.  A
    search runs on one domain, so only a daemon's worker domains meet
    at the table, one [Hashtbl] under one [Mutex]; hit/miss counters
    are atomic.  [find] is a fault-injection site
    (["sim_cache"], {!Magis_resilience.Fault}).

    Entries are stored delta-encoded against the parent schedule when
    the caller supplies one (see [add]): children of one parent share
    the list the caller passes and store only the rewritten window.
    Encoding is validated by reconstruct-and-compare, so [find] always
    returns the bit-identical schedule that was added. *)

(** Cached outcome of evaluating one M-state. *)
type value = {
  schedule : int list;  (** result of the incremental reschedule *)
  peak_mem : int;
  latency : float;
  hotspots : int list;  (** sorted elements of the hot-spot set *)
}

(** The prefix/middle/suffix schedule codec by itself, as [add] applies
    it (the codec micro-probes time it).  [encode] validates by
    reconstruct-and-compare and falls back to a full copy whenever the
    delta would not be smaller, so [decode] is always bit-identical to
    the encoded schedule.  The [parent] list the caller passes is held
    as-is. *)
module Codec : sig
  type code

  (** Delta against [parent] when profitable and exact, else full. *)
  val encode : parent:int list -> int list -> code

  val decode : code -> int list
end

type t

val create : unit -> t

(** Digest of every evaluation input (see the module doc). *)
val key :
  state:int64 ->
  parent_sched:int64 ->
  mutated:int64 ->
  sched_states:int ->
  hw:int64 ->
  int64

(** [find t k] is the cached evaluation under [k]; bumps the hit or miss
    counter. *)
val find : t -> int64 -> value option

(** [add ?parent t k v] caches [v].  When [parent] — the schedule of the
    state [v] was derived from — is given and [v.schedule] shares a
    prefix/suffix with it, the entry is stored as a delta against
    [parent] itself, which it keeps; otherwise (or when the delta would not be
    smaller) it is stored in full.  Either way a later {!find} returns
    [v.schedule] bit-identically. *)
val add : ?parent:int list -> t -> int64 -> value -> unit

(** {1 Refreshed F-Trees}

    The search also stores the F-Tree each stale pop's refresh
    (Algorithm 3, lines 13-14) rebuilds, under a key of its own that
    digests what the refresh reads; a later search that pops the same
    stale state decodes the tree instead of rebuilding it.  The payload
    is an opaque [int array] (the F-Tree's compact code: this library
    knows no F-Tree type).  Tree lookups visit no fault site and count
    into neither {!stats} nor {!length}; the gauges [sim_cache.trees]
    and [sim_cache.tree_words] report the stored trees and their words
    of the cache that stored or cleared last (a daemon's one cache). *)

(** The payload stored under [k], if any. *)
val tree : t -> int64 -> int array option

(** [add_tree t k code] stores [code] under [k]; a key already stored
    keeps its payload. *)
val add_tree : t -> int64 -> int array -> unit

(** [(trees, words)]: the stored trees and the total length of their
    payloads, since creation or {!clear}. *)
val tree_stats : t -> int * int

(** [(hits, misses)] since creation or the last {!reset_stats}. *)
val stats : t -> int * int

(** [hits / (hits + misses)] since creation or the last {!reset_stats}
    (0 when no lookup ran) — the cross-request effectiveness number a
    shared cache ({!Magis_serve}, [bench serve]) reports. *)
val hit_rate : t -> float

(** [(full_entries, delta_entries)] stored since creation or {!clear} —
    the compression-effectiveness counters of the [bench incr] report. *)
val delta_stats : t -> int * int

val reset_stats : t -> unit

(** Number of cached evaluations. *)
val length : t -> int

(** Drop every cached evaluation and every stored tree. *)
val clear : t -> unit
