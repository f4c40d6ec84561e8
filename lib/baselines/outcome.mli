(** Common result type for the baseline memory optimizers, plus the
    bisection driver used by the latency-constrained experiments. *)

open Magis_ir
open Magis_cost

type t = {
  system : string;
  peak_mem : int;  (** device bytes at the memory peak *)
  latency : float;  (** seconds per training iteration *)
  feasible : bool;  (** whether the requested constraint was met *)
}

val infeasible : string -> t
val pp : Format.formatter -> t -> unit

(** Smallest memory budget whose outcome keeps latency within
    [lat_limit] (binary search over [run]). *)
val min_memory_under_latency :
  run:(int -> t) -> lo:int -> hi:int -> lat_limit:float -> t

(** A budget-driven system's [run] on [g] under a latency limit
    (Fig. 9): {!min_memory_under_latency} between the weight bytes and
    the peak of {!Simulator.baseline}. *)
val min_memory :
  Op_cost.t -> Graph.t -> lat_limit:float -> (budget:int -> t) -> t
