(** Schedule-independent tensor liveness.

    {!Magis_cost.Lifetime} analyzes one concrete schedule; this module
    derives, by abstract interpretation of the graph in topological
    order, liveness facts that hold for {e every} legal schedule (every
    topological order of the DAG):

    - [must_precede t u v]: [u] executes before [v] in every schedule
      (DAG reachability, kept as per-node ancestor/descendant bitsets);
    - [earliest]/[latest]: the range of schedule positions a node can
      occupy ([|anc v|] … [n - 1 - |des v|]);
    - [envelope]: an interval of positions guaranteed to contain the
      node's live interval in every schedule;
    - [always_live_bytes t v]: bytes that are provably resident at the
      step executing [v], in every schedule — the per-node cut bound
      {!Membound} maximizes over.

    Sizes follow the {!Magis_cost.Lifetime} conventions (weights pinned,
    graph outputs live to the end, [size_of] overridable so the fission
    layer's virtual accounting applies unchanged). *)

open Magis_ir

type t

(** [compute ?size_of g] runs the analysis.  [size_of] defaults to
    {!Magis_cost.Lifetime.default_size}[ g]. *)
val compute : ?size_of:(int -> int) -> Graph.t -> t

val graph : t -> Graph.t

(** Number of nodes ([n]); positions range over [0 .. n-1]. *)
val length : t -> int

(** Device bytes of a node under the analysis' size function. *)
val size : t -> int -> int

(** Total bytes pinned for the whole run (weight tensors). *)
val weight_bytes : t -> int

(** Bytes live at the final step of every schedule: weights plus graph
    outputs. *)
val pinned_bytes : t -> int

(** Is the node's tensor live to the end of every schedule (weight or
    graph output)? *)
val pinned : t -> int -> bool

(** [must_precede t u v]: does [u] execute strictly before [v] in every
    legal schedule (i.e. is [u] an ancestor of [v])? *)
val must_precede : t -> int -> int -> bool

(** Earliest position [v] can occupy in any schedule ([|anc v|]). *)
val earliest : t -> int -> int

(** Latest position [v] can occupy ([n - 1 - |des v|]). *)
val latest : t -> int -> int

(** [latest - earliest]: scheduling freedom of the node. *)
val mobility : t -> int -> int

(** [(lo, hi)] such that in every schedule, [v]'s tensor is live only
    within positions [lo .. hi]: [lo = earliest v]; [hi] is the latest
    position of its last consumer, or [n - 1] when pinned. *)
val envelope : t -> int -> int * int

(** Bytes provably resident at the step executing [v], valid for every
    legal schedule: all weights, [v]'s output, and every ancestor tensor
    that still has a consumer at or below [v] (a consumer in
    [{v} ∪ des v]).  The per-node "cut" the lower bound maximizes. *)
val always_live_bytes : t -> int -> int

(** Fold over the node ids in the topological order used internally. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
