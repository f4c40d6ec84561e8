(** Analytic operator latency with a memoizing cache.

    [cost] plays the role of the paper's operator performance cache: the
    first query for an (operator, shapes) key computes the latency from the
    hardware model; later queries hit the cache.  The cache hit/miss
    counters feed the Fig. 15 time-breakdown experiment.

    The table is shared by every domain of the parallel expansion pool
    ({!Magis_par.Pool}), so lookups and insertions take [lock]; the
    analytic latency itself is computed outside the critical section.
    Two domains may both compute a key neither found; the first to
    insert it counts the miss and the other a hit, so the counters read
    (queries − distinct keys, distinct keys) at any number of domains. *)

open Magis_ir
module Fault = Magis_resilience.Fault
module Metrics = Magis_obs.Metrics

let m_hits = Metrics.counter "op_cost.hits"
let m_misses = Metrics.counter "op_cost.misses"

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

type t = {
  hw : Hardware.t;
  cache : (int64, float) Hashtbl.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
}

let create hw =
  { hw; cache = Hashtbl.create 1024; lock = Mutex.create (); hits = 0;
    misses = 0 }

(* the memo key of [op] on operands whose shapes are [shape_of x] *)
let key (op : Op.kind) (shape_of : 'a -> Shape.t) (operands : 'a array) =
  Array.fold_left (fun h x -> Util.hash_combine h (Shape.hash (shape_of x)))
    (Op.fingerprint op) operands

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

(* The memo under key [k] of [op]'s cost; [compute] runs on a miss,
   outside the lock.  Only the query that inserts [k] counts a miss. *)
let memo t k (op : Op.kind) compute =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.cache k with
  | Some c ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.lock;
      Metrics.incr m_hits;
      (* the fault site covers hits and misses alike, so a site visit
         count is independent of cache warmth *)
      let c = Fault.cost "op_cost" c in
      check_op_cost op c;
      c
  | None ->
      Mutex.unlock t.lock;
      let c = Fault.cost "op_cost" (compute ()) in
      (* guard before caching: a corrupted value must never be memoized *)
      check_op_cost op c;
      Mutex.lock t.lock;
      (* [replace] grows the table unless another domain inserted [k],
         with the same value, meanwhile *)
      let size = Hashtbl.length t.cache in
      Hashtbl.replace t.cache k c;
      let fresh = Hashtbl.length t.cache > size in
      if fresh then t.misses <- t.misses + 1 else t.hits <- t.hits + 1;
      Mutex.unlock t.lock;
      Metrics.incr (if fresh then m_misses else m_hits);
      c

let cost t (op : Op.kind) (ins : Shape.t array) (out : Shape.t) : float =
  memo t (key op Fun.id ins) op (fun () -> compute_raw t.hw op ins out)

(** Latency of a node of graph [g]. *)
let node_cost t (g : Graph.t) (id : int) : float =
  let n = Graph.node g id in
  let ins = Array.map (fun i -> Graph.shape g i) n.inputs in
  cost t n.op ins n.shape

(** {!node_cost} on an index of the graph: the key folds the operand
    shapes straight from the index, and the operand array is built only
    on a miss. *)
let node_cost_on t (ix : Graph_index.t) (id : int) : float =
  let n = Graph_index.node ix id in
  memo t (key n.op (Graph_index.shape ix) n.inputs) n.op (fun () ->
      compute_raw t.hw n.op (Graph_index.in_shapes ix id) n.shape)

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

let stats t =
  Mutex.lock t.lock;
  let r = (t.hits, t.misses) in
  Mutex.unlock t.lock;
  r

let reset_stats t =
  Mutex.lock t.lock;
  t.hits <- 0;
  t.misses <- 0;
  Mutex.unlock t.lock
