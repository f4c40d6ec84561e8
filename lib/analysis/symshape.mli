(** Symbolic shape domain for rule-soundness proofs.

    Tensor extents as multivariate polynomials with integer coefficients
    over dimension variables (each implicitly ranging over integers
    [>= 1]), in a canonical normal form so that structural equality of
    normal forms decides equality of extents for {e every} variable
    assignment.  {!geq} and {!divides} are provability predicates under
    a set of {!Magis_rules.Rule.Spec.guard} side conditions: [false]
    means "cannot prove", never "provably false" — the domain is sound
    but incomplete.

    {!dim_domain} packages the domain as an {!Magis_ir.Op.DIM_DOMAIN},
    so {!Magis_ir.Op.Abstract} — the shape inference [Op.infer] runs
    over integers — runs symbolically: the engine behind {!Rule_sound}. *)

open Magis_ir
module Spec = Magis_rules.Rule.Spec

type t

val zero : t
val const : int -> t
val var : string -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** Multiply by an integer constant. *)
val scale : int -> t -> t

(** Equal for every variable assignment (normal-form equality). *)
val equal : t -> t -> bool

(** [Some n] iff the polynomial is the constant [n]. *)
val to_const : t -> int option

(** Embed a spec-level symbolic dimension. *)
val of_sdim : Spec.sdim -> t

(** Variables occurring, sorted, without duplicates. *)
val vars : t -> string list

(** Evaluate under a concrete assignment; raises [Invalid_argument] on
    an unbound variable. *)
val eval : env:(string * int) list -> t -> int

(** [geq ~guards p q]: provable [p >= q] whenever all variables are
    [>= 1] and the guards hold. *)
val geq : guards:Spec.guard list -> t -> t -> bool

(** [divides ~guards c p]: provable [c] divides [p]'s value under the
    guards. *)
val divides : guards:Spec.guard list -> int -> t -> bool

(** [div_exact c p]: the exact quotient when every coefficient is
    divisible by [c]. *)
val div_exact : int -> t -> t option

(** Prime factors dividing the extent for every assignment (factors of
    the coefficient GCD, via {!Magis_ir.Shape.factorize}). *)
val const_factors : t -> int list

(** Does the witness assignment satisfy the guard? *)
val guard_sat : env:(string * int) list -> Spec.guard -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Symbolic element type: spec-level dtype (variable or constant). *)
type sdt = Spec.sdtype

module type DOMAIN = Op.DIM_DOMAIN with type dim = t and type dt = sdt

(** The domain under the given guards, for {!Magis_ir.Op.Abstract}.  Its
    [div_floor] names only exact quotients ({!div_exact}), which are
    also the floor. *)
val dim_domain : Spec.guard list -> (module DOMAIN)
