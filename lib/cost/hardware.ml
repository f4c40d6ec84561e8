(** Device model.

    The paper profiles real kernels on an RTX 3090 and caches their
    latencies (§6.2).  We replace the profiled latencies with an analytic
    model, computed on every query, with the same qualitative behaviour:

    - an additive roofline: [t = launch_overhead + flops/peak + bytes/bw].
      Splitting an operator into [n] parts multiplies the launch overhead
      and re-reads shared operands, so fission costs latency — exactly the
      "lower hardware utilization" the paper describes;
    - a separate host↔device link ([swap_bandwidth]) used by Store/Load on
      an asynchronous copy stream;
    - a two-tier memory model: bytes beyond the fast-tier capacity
      ([fast_memory]) stream at the slow-tier ([swap_bandwidth]) rate.
      Flat-memory devices set [fast_memory = device_memory], which makes
      the tier term vanish. *)

type t = {
  name : string;
  peak_flops : float;  (** attainable FLOP/s of the compute units *)
  mem_bandwidth : float;  (** device memory bytes/s *)
  swap_bandwidth : float;  (** host<->device bytes/s (PCIe) *)
  launch_overhead : float;  (** seconds per kernel launch *)
  device_memory : int;  (** device memory capacity, bytes *)
  fast_memory : int;
      (** fast-tier capacity, bytes; operator traffic beyond it streams
          at [swap_bandwidth].  Equal to [device_memory] on flat-memory
          devices, so the knob only bites on tiered profiles. *)
}

(** Roughly an RTX 3090 running TF32/BF16 kernels. *)
let rtx3090 =
  {
    name = "rtx3090";
    peak_flops = 35.6e12;
    mem_bandwidth = 936.0e9;
    swap_bandwidth = 16.0e9;
    launch_overhead = 6.0e-6;
    device_memory = 24_000_000_000;
    fast_memory = 24_000_000_000;
  }

(** A datacenter-class accelerator (A100-like): the baseline profile of
    the heterogeneous deployment zoo. *)
let a100 =
  {
    name = "a100";
    peak_flops = 156.0e12;
    mem_bandwidth = 1.555e12;
    swap_bandwidth = 32.0e9;
    launch_overhead = 4.0e-6;
    device_memory = 40_000_000_000;
    fast_memory = 40_000_000_000;
  }

(** A mobile-class device (Snapdragon-like): useful for edge experiments. *)
let mobile =
  {
    name = "mobile";
    peak_flops = 1.2e12;
    mem_bandwidth = 51.2e9;
    swap_bandwidth = 3.0e9;
    launch_overhead = 20.0e-6;
    device_memory = 6_000_000_000;
    fast_memory = 6_000_000_000;
  }

(** An edge-class low-bandwidth device: the memory system, not the
    compute units, is the bottleneck for everything. *)
let edge_lb =
  {
    name = "edge-lb";
    peak_flops = 0.5e12;
    mem_bandwidth = 12.8e9;
    swap_bandwidth = 0.8e9;
    launch_overhead = 40.0e-6;
    device_memory = 4_000_000_000;
    fast_memory = 4_000_000_000;
  }

(** A multi-tier memory system: a small fast tier (HBM-like) in front of
    a large slow tier, à la the memory-aware-scheduling literature for
    irregular wired networks.  [fast_memory] is the capacity knob. *)
let tiered =
  {
    name = "tiered";
    peak_flops = 25.0e12;
    mem_bandwidth = 1.2e12;
    swap_bandwidth = 24.0e9;
    launch_overhead = 6.0e-6;
    device_memory = 64_000_000_000;
    fast_memory = 8_000_000_000;
  }

let default = rtx3090

let profiles = [ rtx3090; a100; mobile; edge_lb; tiered ]

let names = List.map (fun t -> t.name) profiles

let find name =
  match
    List.find_opt
      (fun t -> String.lowercase_ascii t.name = String.lowercase_ascii name)
      profiles
  with
  | Some t -> t
  | None ->
      invalid_arg
        (Printf.sprintf
           "Hardware.find: unknown profile %s (expected one of %s)" name
           (String.concat ", " names))

(** Stable 64-bit digest of the full device model.  Two hardware values
    with the same fingerprint produce identical simulator results, so
    the fingerprint can key cached simulations ({!Magis_cost.Sim_cache})
    and cached frontiers ({!Magis_frontier.Frontier_cache}).  Every
    field participates: a silently-uncovered field would poison both
    caches (asserted by the test suite). *)
let fingerprint (t : t) : int64 =
  let open Magis_ir.Util in
  let h = hash_string t.name in
  let h = hash_combine h (Int64.bits_of_float t.peak_flops) in
  let h = hash_combine h (Int64.bits_of_float t.mem_bandwidth) in
  let h = hash_combine h (Int64.bits_of_float t.swap_bandwidth) in
  let h = hash_combine h (Int64.bits_of_float t.launch_overhead) in
  let h = hash_combine h (Int64.of_int t.device_memory) in
  hash_combine h (Int64.of_int t.fast_memory)

let pp ppf t =
  Fmt.pf ppf "%s(%.1f TFLOPs, %.0f GB/s mem, %.0f GB/s swap, %d GB%s)" t.name
    (t.peak_flops /. 1e12)
    (t.mem_bandwidth /. 1e9)
    (t.swap_bandwidth /. 1e9)
    (t.device_memory / 1_000_000_000)
    (if t.fast_memory < t.device_memory then
       Printf.sprintf ", %d GB fast tier" (t.fast_memory / 1_000_000_000)
     else "")
