(** Legality checker for [(graph, schedule)] pairs.

    A schedule is a permutation of the node set; [schedule g order]
    validates, returning diagnostics instead of raising:

    - ["unknown-node"]: a scheduled id that is not in the graph;
    - ["double-schedule"]: an id scheduled more than once;
    - ["missing-node"]: a graph node never scheduled;
    - ["operand-order"]: an operand scheduled at/after its consumer;
    - ["load-source"] / ["load-before-store"]: a [Load] whose operand is
      not a [Store], or that runs before its [Store] (swapped tensors
      must be written to the host before they are read back);
    - ["use-after-free"]: a consumer positioned after the producer's
      {!Magis_cost.Lifetime} free step (cross-validates the lifetime
      analysis against the edge set; only run once the checks above are
      clean, since the analysis assumes a well-formed permutation);
    - ["use-after-store"] (warning): a direct consumer of a swapped-out
      tensor scheduled after the [Store] — legal for the simulator (the
      tensor stays resident until its last direct use) but it defeats
      the swap, and a backend that frees at [Store] would fault;
    - ["remat-divergence"]: re-materialization clones (same operator,
      same operand slots) whose WL labels ({!Magis_ir.Wl_hash.label}) disagree
      — a clone drifted from its original. *)

open Magis_ir

val schedule : Graph.t -> int list -> Diagnostic.t list

(** [assert_ok ?what g order] raises [Failure] with a rendered report
    when {!schedule} finds errors. *)
val assert_ok : ?what:string -> Graph.t -> int list -> unit
