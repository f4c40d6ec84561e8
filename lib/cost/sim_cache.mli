(** Simulation cache: memoizes the (reschedule → simulate) evaluation of
    an M-state so repeated searches over the same workload — ablation
    sweeps, budget sweeps, serial/parallel A-B runs — skip both phases
    on states they have already evaluated.

    The key digests everything the evaluation depends on: the state's
    structural identity (WL hash of the graph ⊕ F-Tree fingerprint), the
    parent schedule and mutated-node set driving the incremental
    reschedule, the DP state budget, the search mode (so the two
    optimization modes can never collide) and the hardware fingerprint.
    All inputs being digested, a hit returns bit-identical results to a
    recomputation; searches sharing a cache stay deterministic.

    The table is a striped-lock table ({!Magis_par.Striped}) shared
    across the expansion pool's domains; hit/miss counters are atomic.
    The search counts its own hits and misses in its accounting table.
    [find] is a fault-injection site (["sim_cache"],
    {!Magis_resilience.Fault}).

    Entries are stored delta-encoded against the parent schedule when
    the caller supplies one (see [add]): children of one parent share a
    single interned copy of its schedule and store only the rewritten
    window.  Encoding is validated by reconstruct-and-compare, so [find]
    always returns the bit-identical schedule that was added. *)

(** Cached outcome of evaluating one M-state. *)
type value = {
  schedule : int list;  (** result of the incremental reschedule *)
  peak_mem : int;
  latency : float;
  hotspots : int list;  (** sorted elements of the hot-spot set *)
}

(** The prefix/middle/suffix schedule codec by itself, for callers that
    store many schedules derived from a shared parent outside this
    table (the frontier's harvested-schedule store).  [encode] validates
    by reconstruct-and-compare and falls back to a full copy whenever
    the delta would not be smaller, so [decode] is always bit-identical
    to the encoded schedule.  Unlike [add], no interning happens here:
    the [parent] list the caller passes is held as-is, so passing one
    shared physical list per parent preserves the aliasing the cache's
    pool would provide. *)
module Codec : sig
  type code

  (** Store [sched] as-is (no parent). *)
  val full : int list -> code

  (** Delta against [parent] when profitable and exact, else full. *)
  val encode : parent:int list -> int list -> code

  val decode : code -> int list
  val is_delta : code -> bool

  (** [int]s this code holds beyond its (possibly shared) parent. *)
  val stored_ints : code -> int
end

type t

val create : ?stripes:int -> unit -> t

(** Digest of every evaluation input (see the module doc). *)
val key :
  state:int64 ->
  parent_sched:int64 ->
  mutated:int64 ->
  sched_states:int ->
  mode:int64 ->
  hw:int64 ->
  int64

(** [find t k] is the cached evaluation under [k]; bumps the hit or miss
    counter. *)
val find : t -> int64 -> value option

(** [add ?parent t k v] caches [v].  When [parent] — the schedule of the
    state [v] was derived from — is given and [v.schedule] shares a
    prefix/suffix with it, the entry is stored as a delta against an
    interned copy of [parent]; otherwise (or when the delta would not be
    smaller) it is stored in full.  Either way a later {!find} returns
    [v.schedule] bit-identically. *)
val add : ?parent:int list -> t -> int64 -> value -> unit

(** [(hits, misses)] since creation or the last {!reset_stats}. *)
val stats : t -> int * int

(** [hits / (hits + misses)] since creation or the last {!reset_stats}
    (0 when no lookup ran) — the cross-request effectiveness number a
    shared cache ({!Magis_serve}, [bench serve]) reports. *)
val hit_rate : t -> float

(** [(full_entries, delta_entries)] stored since creation or {!clear} —
    the compression-effectiveness counters of the [bench incr] report. *)
val delta_stats : t -> int * int

(** Approximate count of [int]s held by stored schedules (codes +
    interned pool + hotspot lists) — the resident-footprint counter the
    delta encoding exists to shrink. *)
val resident_ints : t -> int

val reset_stats : t -> unit

(** Number of cached evaluations. *)
val length : t -> int

val clear : t -> unit
