(** Tensor lifetime analysis (§2.1 of the paper).

    Given a schedule [s = (v_1 … v_n)], the output tensor of [v_i] is live
    from its production ([S_i = i]) until its last consumer's step
    ([F_i = max_{v_j ∈ suc(v_i)} j]).  The active memory at step [i] is the
    sum of sizes of live tensors; the peak over all steps is [M_peak], and
    the *memory hot-spots* are the tensors live at peak steps.

    Conventions:
    - weights are pinned for the whole run (training keeps parameters
      resident);
    - graph outputs (losses, gradients) stay live until the end;
    - the device size of a node can be overridden via [size_of] — the
      fission layer divides sizes of split intermediates, and Store outputs
      occupy no device memory.

    The analysis reads one {!Magis_ir.Graph_index}: node records from its
    array, "has consumers" from its consumer marks, and each node's
    position and each output's last reader from one forward pass over
    the schedule ([analyze_on]'s own, or the simulator's), into
    id-indexed arrays, which [sweep] turns into liveness, memory and
    hot-spots.  It touches no persistent map. *)

open Magis_ir
module Int_set = Util.Int_set

type t = {
  order : int array;
  pos : int array;  (** node id -> schedule position, [-1] if absent *)
  birth : int array;  (** per position: step the output appears *)
  free : int array;  (** per position: last step the output is live *)
  mem : int array;  (** per step: active bytes *)
  peak : int;
  hotspots : Int_set.t;  (** node ids live at some peak step *)
  sizes : int array;  (** device bytes per position *)
}

(** Device size of a node's output: its tensor size, except Store whose
    output lives in host memory. *)
let node_size (n : Graph.node) : int =
  match n.op with Op.Store -> 0 | _ -> Shape.size_bytes n.shape

(** Is the output of a node live to the end of the run: a weight, or a
    graph output (no consumers, not an input)? *)
let pinned_by (op : Op.kind) ~(consumed : bool) : bool =
  Op.is_weight op || ((not consumed) && not (Op.is_input op))

(* The graph-keyed forms, for callers that hold no index: one map
   lookup per query.  [analyze] reads the index instead. *)
let graph_node g id =
  match Graph.node_opt g id with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Lifetime: unknown node %d" id)

let default_size (g : Graph.t) (id : int) : int = node_size (graph_node g id)

let pinned (g : Graph.t) (id : int) : bool =
  pinned_by (graph_node g id).op ~consumed:(Graph.out_degree g id > 0)

(* the memory sweeps of a schedule, after the caller's forward pass *)
let sweep ?size_of ix order ~pos ~read =
  let nodes = Graph_index.nodes ix and { Graph_index.row; _ } = Graph_index.csr ix in
  let size_of = Option.value size_of ~default:(fun v -> node_size nodes.(v)) in
  let n = Array.length order in
  let sizes = Array.map size_of order in
  let birth = Array.make n 0 and free = Array.make n (n - 1) in
  (* Sweep 1: each output's live interval, and memory per step via
     birth/death deltas. *)
  let delta = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let v = order.(i) in
    let op = nodes.(v).op in
    if pinned_by op ~consumed:(row.(v + 1) > row.(v)) then begin
      if not (Op.is_weight op) then birth.(i) <- i
    end
    else begin
      birth.(i) <- i;
      free.(i) <- (if read.(v) > i then read.(v) else i)
    end;
    delta.(birth.(i)) <- delta.(birth.(i)) + sizes.(i);
    delta.(free.(i) + 1) <- delta.(free.(i) + 1) - sizes.(i)
  done;
  let mem = Array.make (max n 1) 0 and peak = ref 0 in
  for step = 0 to n - 1 do
    mem.(step) <- (if step = 0 then 0 else mem.(step - 1)) + delta.(step);
    if mem.(step) > !peak then peak := mem.(step)
  done;
  (* Sweep 2: a tensor is a hot-spot iff its live interval contains a
     peak step; the delta array becomes [next_peak], whose entry [s] is
     the first peak step >= s. *)
  let next_peak = delta in
  next_peak.(n) <- max_int;
  for step = n - 1 downto 0 do
    next_peak.(step) <- (if mem.(step) = !peak then step else next_peak.(step + 1))
  done;
  let hot = ref [] in
  for i = n - 1 downto 0 do
    if next_peak.(birth.(i)) <= free.(i) then hot := order.(i) :: !hot
  done;
  { order; pos; birth; free; mem; peak = !peak; hotspots = Int_set.of_list !hot; sizes }

let analyze_on ?size_of (ix : Graph_index.t) (order : int list) : t =
  let order = Array.of_list order in
  (* one forward pass: each node's (last) position, and the last step
     that reads each output (its last scheduled consumer's) *)
  let pos = Array.make (Graph_index.bound ix) (-1) and read = Array.make (Graph_index.bound ix) (-1) in
  Array.iteri
    (fun i v ->
      let node = Graph_index.node ix v in
      if node.id <> v then invalid_arg (Printf.sprintf "Lifetime: unknown node %d" v);
      pos.(v) <- i;
      Array.iter (fun p -> read.(p) <- i) node.inputs)
    order;
  sweep ?size_of ix order ~pos ~read

let analyze ?size_of (g : Graph.t) (order : int list) : t =
  analyze_on ?size_of (Graph_index.of_graph g) order

let peak_memory t = t.peak
let hotspots t = t.hotspots

(** Memory-vs-step curve (bytes live after each operator executes). *)
let timeline t = Array.copy t.mem

(** Position of a node in the analyzed schedule. *)
let position t v =
  if v >= 0 && v < Array.length t.pos && t.pos.(v) >= 0 then Some t.pos.(v)
  else None

(** Total size of hot-spot tensors using the analysis' size function.
    Every hot-spot is scheduled. *)
let hotspot_bytes t =
  Int_set.fold (fun v acc -> acc + t.sizes.(t.pos.(v))) t.hotspots 0

(** Lifetime interval of the node at schedule position [i]. *)
let interval t i = (t.birth.(i), t.free.(i))
