(** Global verification switch for debug builds and tests.

    Production call sites thread schedules through {!schedule}, which is
    the identity when verification is off (the default) and a full
    {!Verify} + {!Sched_check} pass that raises on errors when it is on.
    Enable with {!set}.  The test suite's entry point turns it on
    globally, so every baseline schedule exercised by the tests is
    checked; binaries and benchmarks leave it off. *)

open Magis_ir

val enabled : unit -> bool
val set : bool -> unit

(** [schedule ~what g order] returns [order]; when verification is on it
    first runs both passes and raises [Failure] (tagged [what]) on any
    error. *)
val schedule : ?what:string -> Graph.t -> int list -> int list

(** Unconditional combined check (used by [Search.config.verify_states]):
    raises [Failure] on IR or schedule errors regardless of {!enabled}. *)
val assert_state : what:string -> Graph.t -> int list -> unit

(** [assert_bounds ~what ?size_of g ~peak ()] recomputes the
    schedule-independent memory bounds and raises [Failure] unless
    [lower <= peak <= ub_total].  With [~exact:true] (the default) the
    full {!Membound.compute} record is checked, including the internal
    [lower <= ub_greedy] and [lb_dom <= lb_cut] cross-checks; with
    [~exact:false] only [lower <= peak <= ub_total]
    ({!Membound.quick_check}) runs — the form
    [Search.config.verify_states] uses on every accepted M-state, where
    the full record would dominate the search loop. *)
val assert_bounds :
  ?exact:bool ->
  what:string -> ?size_of:(int -> int) -> Graph.t -> peak:int -> unit -> unit

(** [assert_interference ~what ?size_of g order] replays the static
    memory plan for [g] under [order] and raises [Failure] on any
    {!Interfere} error (overlapping live buffers, stale intervals, arena
    overflow).  The other [Search.config.verify_states] obligation:
    bounds say how much memory, interference says the plan realizing it
    is consistent. *)
val assert_interference :
  ?strategy:Magis_cost.Allocator.strategy ->
  what:string -> ?size_of:(int -> int) -> Graph.t -> int list -> unit
