(** Scheduling-based transformation rules (§5.2, Fig. 8):
    re-materialization and swapping as graph rewrites — Store/Load are
    ordinary operators — so the scheduling phase only re-orders. *)

open Magis_ir

(** Producer whose recomputation is nearly free (memory-bound). *)
val cheap_to_recompute : Graph_index.t -> int -> bool

(** Fig. 8 (e): Store/Load between a producer and a distant consumer. *)
val swapping : Rule.t

(** Fig. 8 (f): remove a Store/Load pair. *)
val de_swapping : Rule.t

(** Fig. 8 (a)(b): detach one consumer onto a re-computed copy. *)
val rematerialization : Rule.t

(** Fig. 8 (c)(d): merge same-op same-input duplicates. *)
val de_rematerialization : Rule.t

(** Compound: re-materialize every cheap hot tensor in one rewrite, with
    copies consuming copies (checkpointing-style chains). *)
val sweep_rematerialization : Rule.t

(** Compound: swap the k largest hot tensors at once (k = 2, 4, 8). *)
val sweep_swapping : Rule.t

(** The paper's four rules. *)
val basic : Rule.t list

(** [basic] plus the compound sweep rules. *)
val all : Rule.t list
