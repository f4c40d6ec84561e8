(** Tensor lifetime analysis (§2.1): per-schedule liveness, peak memory
    and memory hot-spots.

    Conventions, shared by every memory model of the repository:
    weights are pinned for the whole run and graph outputs (losses,
    gradients) stay live until the end ({!pinned}); a Store output holds
    0 device bytes ({!default_size}); [size_of] can override device
    sizes (fission accounting).  The analysis reads a
    {!Magis_ir.Graph_index} ({!analyze_on}), not the graph's maps. *)

open Magis_ir
module Int_set = Util.Int_set

type t = private {
  order : int array;
  pos : int array;  (** node id -> schedule position, [-1] if absent *)
  birth : int array;  (** per position: step the output appears *)
  free : int array;  (** per position: last step the output is live *)
  mem : int array;  (** per step: active bytes *)
  peak : int;
  hotspots : Int_set.t;  (** node ids live at some peak step *)
  sizes : int array;  (** device bytes per position *)
}

(** Device size of a node's output (0 for Store: host-side). *)
val node_size : Graph.node -> int

(** {!node_size} of a node of the graph. *)
val default_size : Graph.t -> int -> int

(** The residency rule every memory model shares: is a node's output
    live to the end of the run (a weight, or a graph output — no
    consumers, not an input)?  Weights are also live from the start.
    [consumed]: does some node read the output? *)
val pinned_by : Op.kind -> consumed:bool -> bool

(** {!pinned_by} for a node of the graph. *)
val pinned : Graph.t -> int -> bool

(** The analysis of a schedule of the index's graph; [size_of] defaults
    to {!node_size}.  Raises [Invalid_argument] on an id that is not a
    node. *)
val analyze_on : ?size_of:(int -> int) -> Graph_index.t -> int list -> t

(** The analysis of [order] from the caller's forward pass over it:
    [pos.(v)] is [v]'s last position, [read.(v)] the last step reading
    [v]'s output, [-1] for none (kept, not copied). *)
val sweep : ?size_of:(int -> int) -> Graph_index.t -> int array -> pos:int array -> read:int array -> t

(** {!analyze_on} on a fresh index of the graph. *)
val analyze : ?size_of:(int -> int) -> Graph.t -> int list -> t
val peak_memory : t -> int
val hotspots : t -> Int_set.t

(** Memory-vs-step curve (bytes live after each operator executes). *)
val timeline : t -> int array

(** Position of a node in the analyzed schedule ([None] for an id the
    schedule does not hold, including ids outside the graph's bound). *)
val position : t -> int -> int option

(** Total size of hot-spot tensors. *)
val hotspot_bytes : t -> int

(** Live interval [(birth, free)] of the node at schedule position [i]. *)
val interval : t -> int -> int * int
