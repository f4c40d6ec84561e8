(** Ancestor and descendant closures of a graph over one topological
    order: the reachability structure behind the narrow-waist values of
    §6.1 ([Magis_sched.Partition.nw_on]) and the schedule-independent
    liveness facts of [Magis_analysis.Liveness].

    Both closures share one bit matrix of [n * ceil(n/63)] words, built
    by one pass in the order (ancestors) and one in reverse
    (descendants).  Queries take node ids; an id that is not a node of
    the graph is outside their domain. *)

type t

(** The closures of a graph held as id-indexed arrays (those of its
    {!Graph_index}), over [order], which must list every node exactly
    once, each after its operands (it is not checked): [nodes.(v)] is
    node [v]'s record, and [consumers.(k)] for [k] from
    [consumer_row.(v)] below [consumer_row.(v + 1)] are the nodes
    reading [v] (a node may appear once per operand slot).  Reads
    neither the graph's maps nor anything but these arrays. *)
val of_arrays :
  order:int array ->
  nodes:Graph.node array ->
  consumer_row:int array ->
  consumers:int array ->
  t

(** Number of nodes. *)
val length : t -> int

(** The topological order the closures were built over (position ->
    node id); not a copy, do not mutate. *)
val order : t -> int array

(** [|anc v|], by popcount over [v]'s row: [O(n/63)]. *)
val n_anc : t -> int -> int

(** [|des v|], likewise. *)
val n_des : t -> int -> int

(** [precedes t u v]: is [u] a strict ancestor of [v] (so it executes
    before [v] in every schedule)?  One bit test. *)
val precedes : t -> int -> int -> bool

(** [iter_anc f t v] applies [f] to every strict ancestor of [v], in the
    closure's order. *)
val iter_anc : (int -> unit) -> t -> int -> unit
