(** Schedule-independent peak-memory bounds (the "analyze before you
    execute" pass of DESIGN.md §8), used as a verification oracle.

    From the graph alone — no schedule, no simulation — this module
    derives an {e admissible lower bound} on the peak resident memory of
    {e every} legal schedule, and two upper bounds.  All figures use the
    {!Magis_cost.Lifetime} size conventions, with [size_of] overridable
    so the F-Tree's virtual accounting applies unchanged; the bounds are
    therefore directly comparable with the simulator's [peak_mem].

    Lower-bound terms (the reported [lower] is their maximum):
    - [lb_workset]: pinned weights + the largest single-operator working
      set (distinct operands + output) — every operator's operands are
      live while it runs;
    - [lb_cut]: the weighted max-antichain relaxation: for each node
      [v], {!Liveness.always_live_bytes} sums the tensors provably
      resident when [v] executes (ancestors still needed at or below
      [v]); the bound maximizes over nodes ([cut_node] breaks ties
      toward the larger working set, then the smaller id);
    - [lb_dom]: the same cut evaluated through the
      {!Magis_ir.Dominator} tree only (dominators of [v] held by
      consumers [v] dominates) — weaker than [lb_cut] by construction,
      kept as a cross-check on both structures;
    - [lb_pinned]: weights + graph outputs, all live at the final step.

    Upper bounds:
    - [ub_greedy]: the {!Magis_cost.Lifetime} peak of the memory-greedy
      list schedule ({!Magis_sched.Reorder} with a zero DP budget) — an
      upper bound on the {e optimal} schedule's peak, so
      [lower <= ub_greedy] always;
    - [ub_total]: the sum of all tensor sizes — an upper bound on the
      peak of {e any} schedule, so [simulated peak <= ub_total]. *)

open Magis_ir

type t = {
  lb_workset : int;
  lb_cut : int;
  lb_dom : int;
  lb_pinned : int;
  lower : int;  (** max of the four lower-bound terms *)
  ub_greedy : int;
  ub_total : int;
  cut_node : int;  (** node id attaining [lb_cut]; [-1] on empty graphs *)
}

(** Full bound record (includes the greedy-schedule upper bound and the
    dominator cross-check; {!lower_bound} skips both). *)
val compute : ?size_of:(int -> int) -> Graph.t -> t

(** Same, sharing an already-computed liveness analysis. *)
val of_liveness : Liveness.t -> t

(** [lower_bound ?size_of g] is [(compute ?size_of g).lower] without the
    upper bounds and the dominator pass: the workset, cut and pinned
    terms of {!of_liveness} over one {!Liveness.compute}. *)
val lower_bound : ?size_of:(int -> int) -> Graph.t -> int

(** Admissible lower bound on the simulated latency of any schedule:
    the compute stream is serial, so latency is at least the sum of
    [cost_of] over compute operators (swaps overlap and inputs are
    free — both excluded).  Add the fission accounting's
    [extra_latency] for states with enabled fissions. *)
val latency_lower_bound : cost_of:(int -> float) -> Graph.t -> float

(** Bound-invariant diagnostics for an observed simulated peak:
    ["lb-exceeds-peak"] when [lower > peak] (the analyzer or the cost
    model is wrong), ["peak-exceeds-total"] when [peak > ub_total], and
    ["lb-exceeds-greedy"] when [lower > ub_greedy] (an inadmissible
    bound caught by a concrete schedule).  Empty when the invariant
    [lower <= peak <= ub_total] holds. *)
val check : ?node:int -> t -> peak:int -> Diagnostic.t list

(** [quick_check ?size_of g ~peak] is the cheap form of {!check}: the
    ["lb-exceeds-peak"] and ["peak-exceeds-total"] verdicts from
    {!lower_bound} and the total bytes alone (no dominator pass, no
    greedy schedule), cheap enough to run on every state the search
    accepts under [verify_states]. *)
val quick_check : ?size_of:(int -> int) -> Graph.t -> peak:int -> Diagnostic.t list

val pp : Format.formatter -> t -> unit
