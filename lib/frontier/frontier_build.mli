(** One search, a whole frontier: harvest every exactly-evaluated
    candidate of a {!Magis_opt.Search} run into a {!Frontier}, persist
    it with {!Frontier_cache}, and answer later memory-budget questions
    without searching again.

    The harvest rides the search's observation-only hook
    ([Search.config.harvest]): it sees every exactly-evaluated candidate
    at the serial merge, in candidate order, and cannot change the
    trajectory — the returned best state is bit-identical with
    harvesting on or off (A/B-enforced in the tests). *)

open Magis_ir
open Magis_cost
module Search = Magis_opt.Search

(** The sweep every frontier is built with: minimize memory with no
    latency bound, the widest sweep, so one frontier answers every
    memory budget. *)
val sweep_mode : Search.mode

(** The frontier cache key: {!Search.trajectory_fingerprint} of the
    configuration, mode, hardware and graph, combined with the
    configuration's [max_iterations].  The cap is in the key because a
    longer sweep harvests more points: a frontier built at 8 iterations
    must not answer a 40-iteration request.  [config] defaults to
    {!Search.default_config}; observation-only hooks in it are ignored
    by the fingerprint, so the key is stable across harvesting runs and
    plain runs. *)
val key :
  ?config:Search.config -> Search.mode -> hw:Hardware.t -> Graph.t -> int64

(** Run the search with harvesting on and return the swept frontier
    alongside the ordinary search result.  The frontier's baseline is
    {!Simulator.baseline} of the graph; the search's starting state is
    offered as iteration 0. *)
val build :
  ?config:Search.config ->
  Op_cost.t ->
  Search.mode ->
  Graph.t ->
  Frontier.t * Search.result

(** May the frontier of this build be saved?  Only when the sweep ran
    to its iteration cap or an empty queue.  A sweep its poll stopped
    ([interrupted]) or its time budget ended ({!Search.budget_ended})
    is answered but never saved: the key holds
    neither the poll nor the budget, so a saved partial sweep would
    answer every later query of the key with a worse frontier, and
    what the cache held would depend on the machine's speed.  The one
    rule for {!cached_or_build} and the daemon's frontier builds. *)
val cacheable : Search.result -> bool

(** Serve the frontier for [(config, mode, hardware, graph)] from
    [dir], building it on a miss and saving it when {!cacheable}.
    [`Hit] answers with zero searches. *)
val cached_or_build :
  ?config:Search.config ->
  dir:string ->
  Op_cost.t ->
  Search.mode ->
  Graph.t ->
  Frontier.t * [ `Hit | `Built of Search.result ]

(** A ratio budget in bytes: the memory limit {!Search.mode_of}[
    (Mem_ratio ratio)] sets over the frontier's baseline, as for
    {!Search.optimize_latency} at the same [mem_ratio]. *)
val budget_of_ratio : Frontier.t -> ratio:float -> int

(** {!Frontier.query} at {!budget_of_ratio}. *)
val query_ratio : Frontier.t -> ratio:float -> Frontier.point option
