(** Analytic operator latency — the role of the paper's operator
    performance cache (§6.2), computed on every query: a roofline
    formula is cheaper than a lookup.  Immutable, so domain-safe.  Every
    query counts one [op_cost.queries] metric and visits the [op_cost]
    fault site once. *)

open Magis_ir

(** Raised when a computed cost is NaN, infinite or negative — from the
    analytic model itself, a fission-accounting hook built on it, or an
    injected [Nan_cost] fault.  The supervised search quarantines the
    offending candidate with a ["nonfinite-cost"] diagnostic instead of
    letting the value poison the priority queue. *)
exception Non_finite of { what : string; value : float }

(** [is_finite_cost v] is [0 <= v < ∞]. *)
val is_finite_cost : float -> bool

(** [check_finite ~what v] raises {!Non_finite} unless [is_finite_cost v].
    Exposed for the simulator and other cost-consuming layers; hot paths
    test {!is_finite_cost} first and build [what] only on failure. *)
val check_finite : what:string -> float -> unit

type t = { hw : Hardware.t }

val create : Hardware.t -> t

(** Latency (seconds) of one execution on the compute stream; Store/Load
    cost nothing here (they run on the copy stream). *)
val cost : t -> Op.kind -> Shape.t array -> Shape.t -> float

val node_cost : t -> Graph.t -> int -> float

(** {!node_cost}, reading the node record and its operand shapes from
    an index of the graph. *)
val node_cost_on : t -> Graph_index.t -> int -> float

(** Base costs of the indexed graph by node id: {!node_cost_on} for
    every node but Input, Store and Load, whose compute-stream cost is
    0 and is not queried, and 0 for ids that are not nodes. *)
val costs_on : t -> Graph_index.t -> float array

(** [inherited_cost_on t ~parent_nodes ~parent_costs ix]: {!node_cost_on}
    [t ix], taking [parent_costs.(v)] (from {!costs_on} on an index of a
    graph whose node array is [parent_nodes]) for a node [v] whose
    record, and each of whose operands' records, is physically the
    parent's at its id.  Such a node has the same operator and operand
    shapes, so the inherited cost is the one a query would return; only
    the other nodes are queried. *)
val inherited_cost_on :
  t ->
  parent_nodes:Graph.node array ->
  parent_costs:float array ->
  Graph_index.t ->
  int ->
  float

(** Host<->device transfer time for [bytes]. *)
val swap_time : t -> int -> float

(** Sum of node costs ([cost(G) ≈ Σ cost(v)], §2.1). *)
val graph_cost : t -> Graph.t -> float
