(** Fission Hierarchy Tree (F-Tree, §4.3 / §5.1): the search space of
    fission transformations.

    Entries are fission candidates nested by member-set inclusion; a
    candidate with [n = 1] is disabled, [n > 1] means its region is
    (virtually) split into [n] parts.  Construction follows Algorithm 1;
    the mutation rules are the paper's Enable / Lift / Disable / Mutate;
    [accounting] is the virtual-fission cost/memory model the simulator
    uses during search.

    Each function reads its graph through one {!Graph_index}, given
    ({!prune}, {!accounting}, {!mutations_on}, {!refresh_on}) or built
    per call: membership, shapes, outputs of a member set and every
    {!Fission.structure} check come from that index, never from the
    graph's persistent maps. *)

open Magis_ir
open Magis_cost
module Int_map = Util.Int_map
module Int_set = Util.Int_set

type entry = {
  fission : Fission.t;
  parent : int;  (** index of the parent entry, or [-1] for roots *)
  children : int list;
}

type t

val empty : t
val n_entries : t -> int
val entry : t -> int -> entry
val fission_at : t -> int -> Fission.t
val n_at : t -> int -> int
val is_enabled : t -> int -> bool
val enabled_indices : t -> int list
val has_enabled_ancestor : t -> int -> bool
val has_enabled_descendant : t -> int -> bool
val set_n : t -> int -> int -> t

(** Union of enabled member sets: regions that structural rules must not
    cut across. *)
val frozen_region : t -> Int_set.t

(** Smallest feasible fission number of a candidate, if any. *)
val smallest_valid_n : Graph.t -> Fission.t -> int option

(** The paper's [L]: the number of score-interval levels Algorithm 1
    bins candidates into (4), the default of every [max_level]. *)
val default_max_level : int

(** Algorithm 1: construct candidates from the memory hot-spots of the
    current schedule.  [max_level] is the paper's [L] (default
    {!default_max_level}). *)
val construct : ?max_level:int -> Graph.t -> hotspots:Int_set.t -> t

(** Assemble a tree from explicit fissions, as {!construct} assembles its
    candidates: deduplicated by member set, each entry's parent the
    smallest strictly larger candidate containing it. *)
val of_fissions : Fission.t list -> t

(** Random candidate selection (the Fig. 13 "naïve-fission" ablation). *)
val construct_naive : ?seed:int -> ?per_component:int -> Graph.t -> t

(** {1 Mutation rules (§5.1, Fig. 7)} *)

type mutation =
  | Enable of int
  | Lift of int
  | Disable of int
  | Mutate of int

val pp_mutation : Format.formatter -> mutation -> unit

(** Mutations applicable to the current tree, each with the tree it
    yields; [None] for a Lift whose parent has no feasible fission
    number.  Each entry's {!Fission.structure} is checked at most once
    per call. *)
val mutations_on : Graph_index.t -> t -> (mutation * t option) list

(** The tree a mutation yields: a lookup in {!mutations_on} a fresh
    index of the graph; [None] if the mutation is not listed there or
    yields no tree. *)
val apply : Graph.t -> t -> mutation -> t option

(** {1 Maintenance across graph rewrites} *)

(** Fingerprint of the enabled fissions (combined with the WL graph hash
    to deduplicate search states). *)
val fingerprint : t -> int64

(** Drop entries invalidated by a graph rewrite — a member gone, or an
    enabled entry that no longer validates — re-parenting children. *)
val prune : Graph_index.t -> t -> t

(** Rebuild candidates for the indexed graph, rewritten since [old_tree]
    was built, while preserving surviving enabled fissions. *)
val refresh_on :
  ?max_level:int -> Graph_index.t -> old_tree:t -> hotspots:Int_set.t -> t

(** {1 Virtual accounting} *)

type accounting = {
  size_of : int -> int;  (** device bytes of a node's output *)
  cost_of : int -> float;  (** per-node latency incl. split execution *)
  extra_latency : float;  (** boundary slice/merge overhead *)
  index : Graph_index.t;
      (** the index of the graph [size_of] and [cost_of] read, for the
          simulation of the same candidate ({!Simulator.run_on}) *)
}

(** Cost/memory model of the enabled fissions: split intermediates
    shrink, split operators run [n] times at per-part shapes, region
    boundaries pay slice/merge work.  [size_of] reads an id-indexed
    array of device sizes filled once per call; [cost_of] reads the
    given index of the graph and id-indexed arrays filled in one pass
    over each enabled entry's members.  [base v] is node [v]'s
    unsplit cost, asked only of nodes no enabled entry splits; it
    defaults to {!Op_cost.node_cost_on} on the index
    ({!Op_cost.inherited_cost_on} takes most of them from a parent). *)
val accounting :
  ?base:(int -> float) -> Op_cost.t -> Graph_index.t -> t -> accounting

(** {1 Materialization} *)

(** [realize g t] is [g] with every outermost enabled fission of [t]
    that is still valid materialized by {!Fission.expand}, in
    {!enabled_indices} order: the graph the plan [t] stands for. *)
val realize : Graph.t -> t -> Graph.t

val pp : Format.formatter -> t -> unit
