(** M-State (§3): the optimizer's search state — computation graph,
    fission hierarchy tree, best schedule and simulation result. *)

open Magis_ir
open Magis_cost
open Magis_ftree
module Int_set = Util.Int_set

type t = {
  graph : Graph.t;
  ftree : Ftree.t;
  schedule : int list;
  peak_mem : int;  (** device bytes at the memory peak *)
  latency : float;  (** simulated seconds per iteration *)
  hotspots : Int_set.t;
  ftree_stale : bool;  (** graph changed since the F-Tree was built *)
}

(** Simulate [schedule] under the tree's fission accounting.  [acc]
    reuses an accounting the caller already computed for this
    (graph, ftree) pair. *)
val evaluate :
  ?ftree_stale:bool ->
  ?acc:Ftree.accounting ->
  Op_cost.t ->
  Graph.t ->
  Ftree.t ->
  int list ->
  t

(** Rebuild a state from a simulation-cache hit; bit-identical to
    re-evaluating, because the cache key digests every evaluation input. *)
val of_cached : ?ftree_stale:bool -> Graph.t -> Ftree.t -> Sim_cache.value -> t

(** The cacheable part of a state, inverse of {!of_cached}. *)
val to_cached : t -> Sim_cache.value

(** Initial state: schedule with a DP budget of [sched_states] states
    per block (0 = greedy only), analyze, build the F-Tree
    (Algorithm 1). *)
val init : ?max_level:int -> sched_states:int -> Op_cost.t -> Graph.t -> t

(** {!init} on an index of the graph the caller already holds, which
    its schedule, simulation and F-Tree all read. *)
val init_on :
  ?max_level:int -> sched_states:int -> Op_cost.t -> Graph_index.t -> t

val pp : Format.formatter -> t -> unit
