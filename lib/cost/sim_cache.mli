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

    An entry is stored as plain data: its schedule and hot spots as
    [int array]s, so [find] returns the lists [add] was given.  A stored
    F-Tree is the string its caller passes (see {!add_tree}). *)

(** Cached outcome of evaluating one M-state. *)
type value = {
  schedule : int list;  (** result of the incremental reschedule *)
  peak_mem : int;
  latency : float;
  hotspots : int list;  (** sorted elements of the hot-spot set *)
}

(** The cache's schedule form by itself, as [add] and [find] apply it:
    an [int array].  [parent] is ignored; the label stays because the
    repository benchmark's codec probe ([benchmark/probes.ml]) names
    it. *)
module Codec : sig
  type code = int array

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

(** [add t k v] caches [v] under [k], replacing what [k] held. *)
val add : t -> int64 -> value -> unit

(** {1 Refreshed F-Trees}

    The search also stores the F-Tree each stale pop's refresh
    (Algorithm 3, lines 13-14) rebuilds, under a key of its own that
    digests what the refresh reads; a later search that pops the same
    stale state unmarshals the tree instead of rebuilding it.  The
    payload is an opaque string (the F-Tree's [Marshal] bytes: this
    library knows no F-Tree type), written by the same process under
    keys only the search makes.  Tree lookups visit no fault site and
    count into neither {!stats} nor {!length}; the gauges
    [sim_cache.trees] and [sim_cache.tree_bytes] report the stored trees
    and their bytes of the cache that stored or cleared last (a daemon's
    one cache). *)

(** The payload stored under [k], if any. *)
val tree : t -> int64 -> string option

(** [add_tree t k bytes] stores [bytes] under [k]; a key already stored
    keeps its payload. *)
val add_tree : t -> int64 -> string -> unit

(** [(trees, bytes)]: the stored trees and the total length of their
    payloads, since creation or {!clear}. *)
val tree_stats : t -> int * int

(** [(hits, misses)] since creation or the last {!reset_stats}. *)
val stats : t -> int * int

(** [hits / (hits + misses)] since creation or the last {!reset_stats}
    (0 when no lookup ran) — the cross-request effectiveness number a
    shared cache ({!Magis_serve}, [bench serve]) reports. *)
val hit_rate : t -> float

val reset_stats : t -> unit

(** Number of cached evaluations. *)
val length : t -> int

(** Drop every cached evaluation and every stored tree. *)
val clear : t -> unit
