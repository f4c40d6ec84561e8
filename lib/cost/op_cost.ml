(** Analytic operator latency: a pure function of the hardware model,
    the operator and its shapes.

    The paper keeps an operator performance cache because its costs are
    profiled kernels (§6.2).  A roofline formula is cheaper to compute
    than to look up, so every query computes it, and a candidate takes
    the costs of the nodes it shares with its parent from the parent
    ({!inherited_cost_on}).  A [t] never changes after {!create}, so
    the daemon's request domains share one freely
    ([scripts/check_style.sh] rule 15). *)

open Magis_ir
module Fault = Magis_resilience.Fault
module Metrics = Magis_obs.Metrics

let m_queries = Metrics.counter "op_cost.queries"

exception Non_finite of { what : string; value : float }

let () =
  Printexc.register_printer (function
    | Non_finite { what; value } ->
        Some
          (Printf.sprintf "Magis_cost.Op_cost.Non_finite(%s = %h)" what value)
    | _ -> None)

(** Finiteness guard: every cost this module (or a cost hook built on
    it) hands to the search must be a finite non-negative number of
    seconds.  A NaN would silently poison every comparison downstream —
    the priority queue, the δ-admission test, the latency floor — so it
    is converted to a structured exception at the source, which the
    supervised search quarantines as a diagnostic. *)
let is_finite_cost value = Float.is_finite value && value >= 0.0

let check_finite ~what value =
  if not (is_finite_cost value) then raise (Non_finite { what; value })

(* the guard of every operator cost; the label is built only to raise *)
let check_op_cost op c =
  if not (is_finite_cost c) then check_finite ~what:(Op.name op ^ " cost") c

type t = { hw : Hardware.t }

let create hw = { hw }

(** Latency (seconds) of one execution of the operator on the device
    compute stream.  Store/Load cost nothing here: they run on the copy
    stream (see {!Simulator}). *)
let compute_raw (hw : Hardware.t) (op : Op.kind) (ins : Shape.t array)
    (out : Shape.t) : float =
  match op with
  | Op.Input _ | Op.Store | Op.Load -> 0.0
  | _ ->
      let fl = Op.flops op ins out in
      let by = Op.bytes_moved op ins out in
      (* two-tier memory: traffic beyond the fast-tier capacity streams
         at the slow-tier rate.  Flat profiles have
         [fast_memory = device_memory], far above any single operator's
         traffic, so this reduces to the plain roofline term there. *)
      let fast = float_of_int hw.fast_memory in
      let mem_t =
        if by <= fast then by /. hw.mem_bandwidth
        else (fast /. hw.mem_bandwidth) +. ((by -. fast) /. hw.swap_bandwidth)
      in
      hw.launch_overhead +. (fl /. hw.peak_flops) +. mem_t

(* every query passes the fault site once and then the guard *)
let query (op : Op.kind) c =
  Metrics.incr m_queries;
  let c = Fault.cost "op_cost" c in
  check_op_cost op c;
  c

let cost t (op : Op.kind) (ins : Shape.t array) (out : Shape.t) : float =
  query op (compute_raw t.hw op ins out)

(** Latency of a node of graph [g]. *)
let node_cost t (g : Graph.t) (id : int) : float =
  let n = Graph.node g id in
  cost t n.op (Array.map (Graph.shape g) n.inputs) n.shape

(** {!node_cost} on an index of the graph. *)
let node_cost_on t (ix : Graph_index.t) (id : int) : float =
  let n = Graph_index.node ix id in
  query n.op (compute_raw t.hw n.op (Graph_index.in_shapes ix id) n.shape)

(* Input, Store and Load cost nothing on the compute stream *)
let charged (op : Op.kind) =
  match op with Op.Input _ | Op.Store | Op.Load -> false | _ -> true

let costs_on t (ix : Graph_index.t) : float array =
  Array.mapi
    (fun v (n : Graph.node) ->
      if n.id = v && charged n.op then node_cost_on t ix v else 0.0)
    (Graph_index.nodes ix)

let inherited_cost_on t ~(parent_nodes : Graph.node array) ~parent_costs
    (ix : Graph_index.t) : int -> float =
  let nodes = Graph_index.nodes ix and pbound = Array.length parent_nodes in
  (* every operand of a parent record is a parent node, below [pbound] *)
  let rec same (ins : int array) k =
    k < 0 || (parent_nodes.(ins.(k)) == nodes.(ins.(k)) && same ins (k - 1))
  in
  fun v ->
    let n = nodes.(v) in
    if
      v < pbound
      && parent_nodes.(v) == n
      && same n.inputs (Array.length n.inputs - 1)
    then parent_costs.(v)
    else node_cost_on t ix v

(** Time to move a tensor of [bytes] over the host<->device link. *)
let swap_time t (bytes : int) : float =
  float_of_int bytes /. t.hw.swap_bandwidth

(** Sum of node costs — the graph latency lower bound (§2.1:
    [cost(G) ≈ Σ cost(v)]). *)
let graph_cost t (g : Graph.t) : float =
  Graph.fold (fun n acc -> acc +. node_cost t g n.id) g 0.0
