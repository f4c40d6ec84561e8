(** Spatial (halo) fission — the sliding-window splitting the paper's
    footnote 2 leaves to future work, restricted to *linear chains* of
    stride-1 "same"-padded convolutions/poolings and window-free
    operators in NCHW layout.  Each part's input slice is widened by the
    chain's accumulated halo, every layer runs on the widened slab, and
    the output slab is trimmed before concatenation.  The only fission
    lever for batch-1 high-resolution inference. *)

open Magis_ir
open Magis_cost

type t = {
  chain : int list;  (** chain members in dataflow order *)
  axis : int;  (** split axis: 2 (H) or 3 (W) *)
  n : int;  (** number of parts *)
}

(** Accumulated halo of the chain. *)
val chain_halo : Graph.t -> int list -> int option

val validate : Graph.t -> t -> (unit, string) result
val is_valid : Graph.t -> t -> bool

type expansion = { graph : Graph.t; replacement : int }

(** The real rewrite: haloed slices → chain-on-slab → trim → concat.
    Raises [Invalid_argument] if the fission does not validate. *)
val expand : Graph.t -> t -> expansion

(** Maximal spatially splittable chains, longest first. *)
val candidates : Graph.t -> t list

(** Virtual accounting [(size_of, cost_of, extra_latency)], mirroring
    {!Ftree.accounting}. *)
val accounting :
  Op_cost.t -> Graph.t -> t -> (int -> int) * (int -> float) * float

val pp : Format.formatter -> t -> unit
