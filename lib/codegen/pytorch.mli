(** PyTorch code generation (§7.1): a self-contained Python module whose
    [run(inputs)] executes the operators in schedule order, frees tensors
    after their last consumer, and implements Store/Load with the CUDA
    Stream API (asynchronous swapping). *)

open Magis_ir

val emit : ?module_doc:string -> Graph.t -> schedule:int list -> string

(** Emit {!Magis_ftree.Ftree.realize} [g ftree] under [reschedule]'s
    schedule of it.  The docstring is [title], then the search's
    [accounted_peak] beside the program's own peak
    ({!Magis_cost.Simulator.run} under [cost]), which the F-Tree
    accounting can underestimate; that peak is returned. *)
val emit_expanded :
  Magis_cost.Op_cost.t ->
  title:string ->
  accounted_peak:int ->
  Graph.t ->
  Magis_ftree.Ftree.t ->
  reschedule:(Graph.t -> int list) ->
  string * int
