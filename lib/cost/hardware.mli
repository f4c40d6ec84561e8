(** Device model: an additive roofline
    ([t = launch + flops/peak + bytes/bw]) plus a separate host<->device
    link used by the asynchronous copy stream.  Splitting an operator
    multiplies launches and re-reads shared operands — the fission
    latency tax.

    Profiles form a small heterogeneous zoo (datacenter, consumer,
    mobile, edge low-bandwidth, multi-tier memory) addressable by name;
    {!fingerprint} digests every field, so any two distinct profiles key
    distinct simulation-cache and frontier-cache entries. *)

type t = {
  name : string;
  peak_flops : float;  (** attainable FLOP/s *)
  mem_bandwidth : float;  (** device memory bytes/s *)
  swap_bandwidth : float;  (** host<->device bytes/s (PCIe) *)
  launch_overhead : float;  (** seconds per kernel launch *)
  device_memory : int;  (** device memory capacity, bytes *)
  fast_memory : int;
      (** fast-tier capacity, bytes; operator traffic beyond it streams
          at [swap_bandwidth].  Equal to [device_memory] on flat-memory
          devices. *)
}

(** Roughly an RTX 3090 running TF32/BF16 kernels (the paper's testbed). *)
val rtx3090 : t

(** A datacenter-class accelerator (A100-like), the zoo's baseline. *)
val a100 : t

(** A phone-class device, for the edge-deployment experiments. *)
val mobile : t

(** An edge-class low-bandwidth device: memory-system-bound throughout. *)
val edge_lb : t

(** A multi-tier memory system: small fast tier over a large slow one;
    [fast_memory] is the capacity knob. *)
val tiered : t

val default : t

(** The named profile registry, [rtx3090] first. *)
val profiles : t list

(** Registry names, in {!profiles} order. *)
val names : string list

(** Case-insensitive registry lookup; raises [Invalid_argument] on
    unknown names. *)
val find : string -> t

(** Stable 64-bit digest of the device model; equal fingerprints mean
    identical simulator behaviour (used to key the simulation cache and
    the frontier cache).  Digests every field of [t]. *)
val fingerprint : t -> int64

val pp : Format.formatter -> t -> unit
