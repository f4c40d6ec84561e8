(** Reference interpreter: execute computation graphs on float arrays —
    the semantic ground truth every graph transformation is numerically
    checked against.  Backward surrogate operators get simple
    deterministic semantics (equivalence testing needs consistency, not
    analytic gradients). *)

open Magis_ir

type tensor = { shape : Shape.t; data : float array }

val numel : tensor -> int
val create : Shape.t -> tensor

(** Deterministic pseudo-random fill in [-1, 1). *)
val random : ?seed:int -> Shape.t -> tensor

(** Integer-valued fill in [0, bound), for index tensors. *)
val indices : ?seed:int -> bound:int -> Shape.t -> tensor

(** Evaluate the graph; inputs come from [env].  Returns every node's
    value. *)
val run : Graph.t -> env:(int -> tensor) -> (int, tensor) Hashtbl.t

(** Deterministic inputs: random floats; valid indices for I64 tensors. *)
val default_env : Graph.t -> int -> tensor

(** Maximum absolute element-wise difference (infinite on shape
    mismatch). *)
val max_diff : tensor -> tensor -> float
