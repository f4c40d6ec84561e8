(** Schedule simulator: a two-stream device model (compute + copy) in
    which Store/Load overlap with computation, synchronizing only through
    data dependencies — the paper's asynchronous swapping.  [cost_of] and
    [size_of] let the fission layer reshape costs and sizes.

    Every scheduled duration and the final latency pass through
    {!Op_cost.check_finite}, so a NaN from any cost hook raises
    {!Op_cost.Non_finite} instead of propagating silently.  [run] is
    also a fault-injection site (["simulator"],
    {!Magis_resilience.Fault}).

    A simulation reads node records and operand shapes from one
    {!Graph_index} of the graph, not from its persistent maps; {!run_on}
    takes an index the caller already holds. *)

open Magis_ir

type result = {
  latency : float;  (** seconds per iteration of the schedule *)
  peak_mem : int;  (** peak device bytes *)
  compute_busy : float;  (** compute-stream busy time *)
  copy_busy : float;  (** copy-stream busy time *)
  analysis : Lifetime.t;
}

(** One scheduled non-Input node's placement on the device model. *)
type event = {
  ev_node : int;
  ev_copy : bool;  (** true: copy stream (Store/Load); false: compute *)
  ev_start : float;  (** seconds from schedule start *)
  ev_finish : float;
}

val run :
  ?size_of:(int -> int) ->
  ?cost_of:(int -> float) ->
  Op_cost.t ->
  Graph.t ->
  int list ->
  result

(** {!run} on an index of the graph the caller already holds.  Raises
    [Invalid_argument] on a scheduled id that is not a node. *)
val run_on :
  ?size_of:(int -> int) ->
  ?cost_of:(int -> float) ->
  Op_cost.t ->
  Graph_index.t ->
  int list ->
  result

(** The unoptimized plan (paper §7.1's PyTorch baseline):
    {!Graph_index.order} of the index, simulated.  Every ratio the
    system reports is measured against it. *)
val baseline : Op_cost.t -> Graph_index.t -> result

(** Like {!run}, additionally returning the per-node placements in
    schedule order — the input of {!Magis_obs.Timeline} lane export.
    Traced as a ["simulate"] span. *)
val run_events :
  ?size_of:(int -> int) ->
  ?cost_of:(int -> float) ->
  Op_cost.t ->
  Graph.t ->
  int list ->
  result * event list
