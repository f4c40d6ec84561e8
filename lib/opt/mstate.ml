(** M-State: the optimization state of MAGIS (§3).

    Bundles the computation graph, the fission hierarchy tree, the best
    schedule found for this graph, and the simulation result (peak memory,
    latency).  The fission tree is *virtual*: the graph is unchanged; the
    simulator accounts for enabled fissions through {!Ftree.accounting}. *)

open Magis_ir
open Magis_cost
open Magis_ftree
open Magis_sched
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

(** Simulate [schedule] on [graph] under the fission accounting of
    [ftree] and package the result.  [acc] lets callers that already
    computed {!Ftree.accounting} (the search's evaluation path needs it
    for the reschedule) pass it in instead of
    recomputing. *)
let evaluate ?(ftree_stale = false) ?acc (cache : Op_cost.t) (graph : Graph.t)
    (ftree : Ftree.t) (schedule : int list) : t =
  let acc =
    match acc with
    | Some a -> a
    | None -> Ftree.accounting cache graph ftree
  in
  let res =
    Simulator.run ~size_of:acc.size_of ~cost_of:acc.cost_of cache graph
      schedule
  in
  {
    graph;
    ftree;
    schedule;
    peak_mem = res.peak_mem;
    latency = res.latency +. acc.extra_latency;
    hotspots = Lifetime.hotspots res.analysis;
    ftree_stale;
  }

(** Rebuild a state from a {!Magis_cost.Sim_cache} hit: the graph,
    F-Tree and staleness come from the proposal being evaluated, the
    schedule and simulation outcome from the cache.  Because the cache
    key digests every evaluation input, this is bit-identical to calling
    {!evaluate} again. *)
let of_cached ?(ftree_stale = false) (graph : Graph.t) (ftree : Ftree.t)
    (v : Sim_cache.value) : t =
  {
    graph;
    ftree;
    schedule = v.schedule;
    peak_mem = v.peak_mem;
    latency = v.latency;
    hotspots = Int_set.of_list v.hotspots;
    ftree_stale;
  }

(** The cacheable part of a state, inverse of {!of_cached}. *)
let to_cached (t : t) : Sim_cache.value =
  {
    schedule = t.schedule;
    peak_mem = t.peak_mem;
    latency = t.latency;
    hotspots = Int_set.elements t.hotspots;
  }

(** Initial state: schedule the input graph, analyze it, build the F-Tree
    (Algorithm 1). *)
let init ?(max_level = 4) ?(sched_states = 4_000) (cache : Op_cost.t)
    (graph : Graph.t) : t =
  let schedule = Reorder.schedule ~max_states:sched_states graph in
  let pre = evaluate cache graph Ftree.empty schedule in
  let ftree = Ftree.construct ~max_level graph ~hotspots:pre.hotspots in
  { pre with ftree }

(** Fraction of device memory relative to a baseline (for reporting). *)
let memory_ratio t ~baseline = float_of_int t.peak_mem /. float_of_int baseline

let pp ppf t =
  Fmt.pf ppf "mstate(n=%d, peak=%.1fMB, lat=%.2fms, ftree=%d)"
    (Graph.n_nodes t.graph)
    (float_of_int t.peak_mem /. 1e6)
    (t.latency *. 1e3) (Ftree.n_entries t.ftree)
