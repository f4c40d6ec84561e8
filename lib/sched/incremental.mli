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
          graph was rescheduled from scratch; surfaced as the
          [n_sched_fallback] search counter and the
          ["search.sched_fallbacks"] metric *)
}

(** The paper's [ExtendBound] (clamped to the schedule): walk schedule
    [psi] from position [i] in direction [d] while the narrow-waist
    values [nw] (indexed by node id, see {!Partition.nw_table}) keep
    shrinking. *)
val extend_bound : nw:int array -> int array -> int -> int -> int

(** The paper's [GetRescheduleInterval] over schedule [psi] of the old
    graph, from one {!Partition.nw_table} pass. *)
val get_reschedule_interval : Graph.t -> int array -> int list -> int * int

(** Splice a re-scheduled window into the old schedule; falls back to full
    scheduling when splicing fails. *)
val reschedule :
  ?max_states:int ->
  old_graph:Graph.t ->
  new_graph:Graph.t ->
  old_schedule:int list ->
  mutated_old:Int_set.t ->
  size_of:(int -> int) ->
  unit ->
  int list * stats
