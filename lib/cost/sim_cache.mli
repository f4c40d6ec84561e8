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
    are atomic.  [probe] is a fault-injection site
    (["sim_cache"], {!Magis_resilience.Fault}).

    Beside the evaluations the cache holds one table the search keys
    itself ({!add_record}).  It holds a record per pop, under a digest
    of exactly what the pop's F-Tree refresh and its children read,
    with the refreshed F-Tree and each child's dedup hash and evaluation
    key; and a record per initial state, under a digest of the input
    graph (by node id), the hardware and the knobs the initial state
    reads, with the state less its graph (F-Tree, schedule, peak,
    latency, hot spots).  A search that pops a state another search
    popped, or starts from an input another search started from, reads
    the record back instead of redoing the work, so a warm search
    schedules, simulates and builds no initial state, rebuilds no tree
    and WL-hashes no child.

    An entry is stored as plain data: its schedule and hot spots as
    [int array]s, so [find] returns the lists [add] was given.  A pop
    record is the string its caller passes. *)

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

(** [probe t k] is the cached evaluation under [k] undecoded: its peak
    and latency, and the function that decodes the whole value (its
    schedule and hot-spot lists) from the entry [k] held at the probe.
    Bumps the hit or miss counter. *)
val probe : t -> int64 -> (int * float * (unit -> value)) option

(** [add t k v] caches [v] under [k], replacing what [k] held. *)
val add : t -> int64 -> value -> unit

(** {1 Pop records}

    The search also stores, for each pop whose every proposal it
    hashed, one record under a key of its own that digests what the
    pop's refresh (Algorithm 3, lines 13-14), generating, hashing and
    keying its proposals read; a later search popping the same state
    reads it back instead of rebuilding the F-Tree and relabelling and
    hashing each child.  In the same table it stores one record per
    initial state, under a key that digests what building the state
    reads (the input graph by node id, the hardware, the F-Tree level
    cap, the DP budget and the F-Tree heuristic switch, and no mode or
    limit); a later search from the same input reads it back instead of
    scheduling, simulating and building the tree.  The payload is
    opaque here (the search's [Marshal] bytes: of the refreshed tree
    and 16 bytes per proposal, or of the initial state less its graph;
    this library knows no F-Tree type), written by the same process
    under keys only the search makes.  Record lookups visit no fault
    site and count into neither {!stats} nor {!length}; the gauges
    [sim_cache.pops] and [sim_cache.pop_bytes] report the stored
    records, pop and initial-state ones alike, and their bytes of the cache that stored or cleared last (a
    daemon's one cache). *)

(** The record stored under [k], if any. *)
val record : t -> int64 -> string option

(** [add_record t k bytes] stores [bytes] under [k]; a key already
    stored keeps its record. *)
val add_record : t -> int64 -> string -> unit

(** [(records, bytes)]: the stored pop records and the total length of
    their payloads, since creation or {!clear}. *)
val record_stats : t -> int * int

(** [(hits, misses)] since creation or the last {!reset_stats}. *)
val stats : t -> int * int

(** [hits / (hits + misses)] since creation or the last {!reset_stats}
    (0 when no lookup ran) — the cross-request effectiveness number a
    shared cache ({!Magis_serve}, [bench serve]) reports. *)
val hit_rate : t -> float

val reset_stats : t -> unit

(** Number of cached evaluations. *)
val length : t -> int

(** Drop every cached evaluation and pop record. *)
val clear : t -> unit
