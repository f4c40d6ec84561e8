(** Incremental scheduling (Algorithm 2): after a transformation, only a
    window of the previous schedule around the rewritten region is
    re-scheduled; the window is widened to narrow-waist cut points using
    the paper's empirical thresholds. *)

open Magis_ir
module Int_set = Util.Int_set

type stats = {
  interval : int * int;
      (** [beg, end) window in the old schedule.  When the splice failed
          and full scheduling ran, this is still the window that was
          {e attempted} (or [(0, n)] when no window could be computed),
          so callers can locate the rewrite either way. *)
  rescheduled : int;  (** number of nodes actually rescheduled *)
  fallback : bool;
      (** true when splicing failed (or was impossible) and the whole
          graph was rescheduled from scratch; counted by the search's
          [sched_fallbacks] counter (metric ["search.sched_fallbacks"]) *)
}

(** The paper's [ExtendBound] (clamped to the schedule): walk schedule
    [psi] from position [i] in direction [d] while the narrow-waist
    values [nw] (indexed by node id, see {!Partition.nw_on}) keep
    shrinking. *)
val extend_bound : nw:int array -> int array -> int -> int -> int

(** The paper's [GetRescheduleInterval] over schedule [psi] of the old
    graph: the window around [positions] (indices into [psi]) widened by
    {!extend_bound} over the narrow-waist table [nw]. *)
val get_reschedule_interval : nw:int array -> int array -> int list -> int * int

(** Everything the rescheduling of a parent's children reads from the
    parent, built once per parent and then only read by each of its
    children's reschedules. *)
type parent = private {
  schedule : int array;  (** the parent's schedule, position -> id *)
  position : int array;
      (** id -> position in [schedule], [-1] for an id off it *)
  nw : int array;  (** {!Partition.nw_on} the parent's index *)
  nodes : Graph.node array;  (** {!Graph_index.nodes} of the parent's index *)
}

(** [positions ix schedule]: id -> position in [schedule], [-1] for an
    id of [ix]'s bound off it. *)
val positions : Graph_index.t -> int list -> int array

(** [parent ?position ix schedule]: the context of the indexed graph
    under its valid schedule [schedule]; [position] is
    [positions ix schedule] when the caller already built it, and the
    narrow-waist table is {!Partition.nw_on}, read off the index's own
    {!Graph_index.reach}. *)
val parent : ?position:int array -> Graph_index.t -> int list -> parent

(** The splice {!reschedule} tries: [Some (order, stats, ok)] with
    [order] the kept prefix, the re-scheduled window and the kept suffix,
    and [ok] its window-local check, which looks only at the operands of
    the window's nodes and of the kept nodes whose record is not
    physically the parent's, and agrees with
    {!Graph_index.is_valid_order} on [order].  [None] when no node of
    [mutated_old] is on the parent's schedule. *)
val splice :
  max_states:int ->
  parent:parent ->
  new_index:Graph_index.t ->
  mutated_old:Int_set.t ->
  size_of:(int -> int) ->
  unit ->
  (int list * stats * bool) option

(** Splice a re-scheduled window into the parent's schedule; falls back
    to full scheduling when the {!splice} check fails, or when no node
    of [mutated_old] is on the parent's schedule.  [new_index] is the
    rewritten graph's index: its node array marks the nodes to place
    and its topological order drives the partition. *)
val reschedule :
  max_states:int ->
  parent:parent ->
  new_index:Graph_index.t ->
  mutated_old:Int_set.t ->
  size_of:(int -> int) ->
  unit ->
  int list * stats
